//! Per-platform component power models.
//!
//! Matches the paper's three platforms (Section 4.3): a Core i5 "2-in-1"
//! tablet (12-inch display), a Snapdragon 800 phone, and a Snapdragon 200
//! smart-watch. Component magnitudes follow published measurement studies
//! of these device classes.

/// The device classes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Core i5 2-in-1 tablet, 12" display, 4 GB DRAM, 128 GB SSD.
    Tablet,
    /// Snapdragon 800 development phone, 4" display.
    Phone,
    /// Snapdragon 200 smart-watch class board.
    Watch,
}

/// What the device is doing (drives the component mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Screen off, background sync only.
    Idle,
    /// Screen on, light interaction (messaging, reading).
    Interactive,
    /// Network-heavy foreground use (browsing, calls, streaming).
    Network,
    /// Local compute/GPU-heavy use (gaming, rendering).
    Compute,
    /// GPS tracking with the screen on intermittently (running/cycling).
    GpsTracking,
}

/// Component power model for one platform, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePower {
    /// Platform.
    pub(crate) class: DeviceClass,
    /// Floor power with screen off.
    pub(crate) idle_w: f64,
    /// Display at typical brightness.
    pub(crate) display_w: f64,
    /// Radio actively transferring.
    pub(crate) radio_w: f64,
    /// GPS receiver tracking.
    pub(crate) gps_w: f64,
    /// CPU/GPU at the sustained (long-term) level.
    pub(crate) cpu_sustained_w: f64,
    /// CPU/GPU burst ceiling.
    pub(crate) cpu_burst_w: f64,
}

impl DevicePower {
    /// The component model for a device class.
    #[must_use]
    pub fn for_class(class: DeviceClass) -> Self {
        match class {
            DeviceClass::Tablet => Self {
                class,
                idle_w: 1.2,
                display_w: 3.5,
                radio_w: 1.4,
                gps_w: 0.0,
                cpu_sustained_w: 9.0,
                cpu_burst_w: 22.0,
            },
            DeviceClass::Phone => Self {
                class,
                idle_w: 0.10,
                display_w: 0.85,
                radio_w: 0.80,
                gps_w: 0.45,
                cpu_sustained_w: 2.2,
                cpu_burst_w: 4.5,
            },
            DeviceClass::Watch => Self {
                class,
                idle_w: 0.012,
                display_w: 0.085,
                radio_w: 0.090,
                // GPS tracking on the Snapdragon 200 class board keeps the
                // receiver, sensor fusion, and CPU all busy.
                gps_w: 0.250,
                cpu_sustained_w: 0.28,
                cpu_burst_w: 0.55,
            },
        }
    }

    /// Mean power draw for an activity, watts.
    #[must_use]
    pub fn draw_w(&self, activity: Activity) -> f64 {
        match activity {
            Activity::Idle => self.idle_w,
            Activity::Interactive => self.idle_w + self.display_w + 0.15 * self.cpu_sustained_w,
            Activity::Network => {
                self.idle_w + self.display_w + self.radio_w + 0.25 * self.cpu_sustained_w
            }
            Activity::Compute => self.idle_w + self.display_w + self.cpu_sustained_w,
            Activity::GpsTracking => {
                self.idle_w + 0.5 * self.display_w + self.gps_w + 0.9 * self.cpu_sustained_w
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_magnitudes_ordered() {
        let t = DevicePower::for_class(DeviceClass::Tablet);
        let p = DevicePower::for_class(DeviceClass::Phone);
        let w = DevicePower::for_class(DeviceClass::Watch);
        for a in [
            Activity::Idle,
            Activity::Interactive,
            Activity::Network,
            Activity::Compute,
        ] {
            assert!(t.draw_w(a) > p.draw_w(a), "{a:?}");
            assert!(p.draw_w(a) > w.draw_w(a), "{a:?}");
        }
    }

    #[test]
    fn activities_ordered_by_draw() {
        for class in [DeviceClass::Tablet, DeviceClass::Phone, DeviceClass::Watch] {
            let d = DevicePower::for_class(class);
            assert!(d.draw_w(Activity::Idle) < d.draw_w(Activity::Interactive));
            assert!(d.draw_w(Activity::Interactive) < d.draw_w(Activity::Network));
            assert!(d.draw_w(Activity::Network) < d.draw_w(Activity::Compute));
        }
    }

    #[test]
    fn watch_gps_is_its_high_power_mode() {
        // The Section 5.2 premise: GPS tracking is the watch's demanding
        // workload, far above message checking.
        let w = DevicePower::for_class(DeviceClass::Watch);
        assert!(w.draw_w(Activity::GpsTracking) > 2.0 * w.draw_w(Activity::Interactive));
        assert!(w.draw_w(Activity::GpsTracking) > 10.0 * w.draw_w(Activity::Idle));
    }

    #[test]
    fn watch_day_scale_plausible() {
        // A 2×200 mAh watch (≈1.5 Wh) must survive a day of interactive use
        // plus an hour of GPS: mean draw must be tens of mW.
        let w = DevicePower::for_class(DeviceClass::Watch);
        let day_wh = (w.draw_w(Activity::Interactive) * 2.0
            + w.draw_w(Activity::Idle) * 21.0
            + w.draw_w(Activity::GpsTracking) * 1.0)
            .max(0.0);
        assert!(day_wh > 0.3 && day_wh < 1.6, "day ≈ {day_wh} Wh");
    }
}
