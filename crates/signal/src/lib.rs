//! # cace-signal
//!
//! Signal-processing substrate for the CACE reproduction.
//!
//! The paper's micro-activity recognizers operate on 9-axis inertial data:
//! quaternion-based orientation tracking, high-band-pass filtering,
//! acceleration-trajectory generation (paper Eqn 16), 1.5 s framing windows
//! with 50 % overlap, 32 statistical features per frame (including Goertzel
//! coefficients at 1–5 Hz), and change-point-detection-based segmentation.
//! This crate implements all of that from scratch, plus the deterministic
//! Gaussian sampling used by the sensing simulator.
//!
//! ```
//! use cace_signal::{Quaternion, Vec3};
//!
//! // Rotating the y-axis 90° about z maps it onto -x.
//! let q = Quaternion::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), std::f64::consts::FRAC_PI_2);
//! let v = q.rotate(Vec3::new(0.0, 1.0, 0.0));
//! assert!((v.x - (-1.0)).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod changepoint;
pub mod filter;
pub mod goertzel;
pub mod quaternion;
pub mod rng;
pub mod trajectory;
pub mod vec3;
pub mod window;

pub use changepoint::{ChangePointDetector, Segment};
pub use filter::{HighPassFilter, LowPassFilter, MovingAverage};
pub use goertzel::goertzel_power;
pub use quaternion::Quaternion;
pub use rng::GaussianSampler;
pub use trajectory::TrajectoryBuilder;
pub use vec3::Vec3;
pub use window::FrameWindows;
