//! Error types for the battery-model crate.

use std::fmt;

/// Errors raised by battery model construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum BatteryError {
    /// A curve was constructed from fewer than two points.
    CurveTooShort {
        /// Number of points supplied.
        points: usize,
    },
    /// A curve's x-coordinates were not strictly increasing.
    CurveNotSorted {
        /// Index of the first offending point.
        index: usize,
    },
    /// A curve contained a non-finite coordinate.
    CurveNotFinite {
        /// Index of the offending point.
        index: usize,
    },
    /// A spec parameter was outside its physical range.
    InvalidSpec {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A simulation step received a non-finite or negative duration.
    InvalidTimeStep {
        /// The rejected duration in seconds.
        dt_s: f64,
    },
    /// A simulation step received a non-finite current or power.
    InvalidLoad {
        /// The rejected value.
        value: f64,
    },
    /// The requested power cannot be supplied: the discharge power exceeds
    /// the maximum the cell can deliver at its present state (the quadratic
    /// `P = I·(OCV − I·R)` has no real solution).
    PowerInfeasible {
        /// Power requested in watts.
        requested_w: f64,
        /// Maximum deliverable power in watts at the present state.
        max_w: f64,
    },
    /// The cell is empty (SoC reached 0) and cannot supply further charge.
    Empty,
    /// The cell is full (SoC reached 1) and cannot accept further charge.
    Full,
    /// Current exceeds the cell's rated maximum.
    CurrentLimit {
        /// Requested current magnitude in amps.
        requested_a: f64,
        /// Rated limit in amps.
        limit_a: f64,
    },
}

impl fmt::Display for BatteryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CurveTooShort { points } => {
                write!(f, "curve needs at least 2 points, got {points}")
            }
            Self::CurveNotSorted { index } => {
                write!(
                    f,
                    "curve x-coordinates not strictly increasing at index {index}"
                )
            }
            Self::CurveNotFinite { index } => {
                write!(f, "curve contains non-finite coordinate at index {index}")
            }
            Self::InvalidSpec { field, value } => {
                write!(f, "invalid battery spec: {field} = {value}")
            }
            Self::InvalidTimeStep { dt_s } => write!(f, "invalid time step: {dt_s} s"),
            Self::InvalidLoad { value } => write!(f, "invalid load value: {value}"),
            Self::PowerInfeasible { requested_w, max_w } => write!(
                f,
                "requested {requested_w} W exceeds deliverable maximum {max_w} W"
            ),
            Self::Empty => write!(f, "cell is empty"),
            Self::Full => write!(f, "cell is full"),
            Self::CurrentLimit {
                requested_a,
                limit_a,
            } => {
                write!(f, "current {requested_a} A exceeds rated limit {limit_a} A")
            }
        }
    }
}

impl std::error::Error for BatteryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BatteryError::PowerInfeasible {
            requested_w: 20.0,
            max_w: 11.5,
        };
        let s = e.to_string();
        assert!(s.contains("20"));
        assert!(s.contains("11.5"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(BatteryError::Empty, BatteryError::Empty);
        assert_ne!(BatteryError::Empty, BatteryError::Full);
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(BatteryError::Full);
        assert_eq!(e.to_string(), "cell is full");
    }
}
