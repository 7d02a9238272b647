//! One module per paper table/figure; each recomputes its artifact from
//! the live system, as a [`Figure`](crate::Figure) for data figures or as
//! text for the prose tables and the ablations.

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod fig8;
pub mod tables;
