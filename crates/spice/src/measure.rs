//! `.measure`-style post-processing of AC and transient results.
//!
//! These are the primitives the paper's testbenches are built from: gain,
//! unity-gain frequency, phase margin, 3 dB bandwidth, crossing delays,
//! oscillation frequency, and windowed averages (power).
//!
//! Every extraction returns `Result<_, MeasureError>`: malformed inputs
//! (mismatched waveform lengths, empty sweeps) and absent features (no
//! crossing, no oscillation) are typed errors, never panics or bare
//! `None`s — a candidate evaluation that cannot be measured must surface
//! a recoverable error to the flow's degradation machinery, not abort the
//! run.

use std::fmt;

use crate::analysis::ac::AcResult;
use crate::netlist::NodeId;

/// Edge direction for waveform crossing searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Crossing from below to above the level.
    Rising,
    /// Crossing from above to below the level.
    Falling,
    /// Either direction.
    Any,
}

/// A measurement that could not be extracted from a simulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// Paired vectors (e.g. time and waveform) have different lengths.
    LengthMismatch {
        /// Which measurement found the mismatch.
        what: String,
        /// Length of the reference vector (usually time).
        expected: usize,
        /// Length of the offending vector.
        got: usize,
    },
    /// The AC sweep (or waveform) has no points to measure on.
    EmptySweep {
        /// Which measurement needed data.
        what: String,
    },
    /// The waveform never exhibits the feature looked for (a level
    /// crossing, an oscillation, a rolloff).
    NoCrossing {
        /// Which feature was absent.
        what: String,
    },
    /// The waveform is too short for the measurement.
    TooFewSamples {
        /// Which measurement ran short.
        what: String,
        /// Minimum sample count required.
        needed: usize,
        /// Samples actually available.
        got: usize,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: length mismatch ({expected} vs {got})"),
            MeasureError::EmptySweep { what } => write!(f, "{what}: empty sweep"),
            MeasureError::NoCrossing { what } => write!(f, "{what}"),
            MeasureError::TooFewSamples { what, needed, got } => {
                write!(f, "{what}: too few samples ({got} < {needed})")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

fn check_lengths(what: &str, times: &[f64], wave: &[f64]) -> Result<(), MeasureError> {
    if times.len() != wave.len() {
        return Err(MeasureError::LengthMismatch {
            what: what.to_string(),
            expected: times.len(),
            got: wave.len(),
        });
    }
    Ok(())
}

/// Converts a magnitude ratio to decibels (`20·log10`).
#[inline]
pub fn db(mag: f64) -> f64 {
    20.0 * mag.log10()
}

/// Low-frequency (first sweep point) gain magnitude of a node.
///
/// # Errors
///
/// [`MeasureError::EmptySweep`] when the AC result holds no points.
pub fn dc_gain(ac: &AcResult, node: NodeId) -> Result<f64, MeasureError> {
    if ac.frequencies().is_empty() {
        return Err(MeasureError::EmptySweep {
            what: "dc gain".to_string(),
        });
    }
    Ok(ac.phasor(node, 0).norm())
}

/// Unity-gain frequency: where `|H|` crosses 1.0 from above.
///
/// Log-interpolates between the bracketing sweep points.
///
/// # Errors
///
/// [`MeasureError::NoCrossing`] when the response never crosses unity
/// within the sweep.
pub fn unity_gain_freq(ac: &AcResult, node: NodeId) -> Result<f64, MeasureError> {
    crossing_freq(ac, node, 1.0).map_err(|_| MeasureError::NoCrossing {
        what: "no unity-gain crossing".to_string(),
    })
}

/// Frequency at which `|H|` falls to `1/√2` of its low-frequency value.
///
/// # Errors
///
/// [`MeasureError::NoCrossing`] when the response never rolls off within
/// the sweep, [`MeasureError::EmptySweep`] on an empty result.
pub fn bw_3db(ac: &AcResult, node: NodeId) -> Result<f64, MeasureError> {
    let level = dc_gain(ac, node)? / std::f64::consts::SQRT_2;
    crossing_freq(ac, node, level).map_err(|e| match e {
        MeasureError::NoCrossing { .. } => MeasureError::NoCrossing {
            what: "no 3 dB rolloff".to_string(),
        },
        other => other,
    })
}

/// Finds where the magnitude response falls through `level` (from above).
///
/// # Errors
///
/// [`MeasureError::NoCrossing`] when the response never falls through
/// `level` within the sweep.
pub fn crossing_freq(ac: &AcResult, node: NodeId, level: f64) -> Result<f64, MeasureError> {
    let f = ac.frequencies();
    let mags = ac.magnitude(node);
    for i in 1..mags.len() {
        if mags[i - 1] >= level && mags[i] < level {
            // Log-log interpolation for smoothness on decade sweeps.
            let (m0, m1) = (mags[i - 1].max(1e-300), mags[i].max(1e-300));
            let (f0, f1) = (f[i - 1], f[i]);
            let t = (level.ln() - m0.ln()) / (m1.ln() - m0.ln());
            return Ok((f0.ln() + t * (f1.ln() - f0.ln())).exp());
        }
    }
    Err(MeasureError::NoCrossing {
        what: format!("magnitude never falls through {level:.3e}"),
    })
}

/// Phase margin in degrees: `180° + ∠H(jω_u)` at the unity-gain frequency.
///
/// # Errors
///
/// [`MeasureError::NoCrossing`] when there is no unity crossing in the
/// sweep (the phase margin is then undefined).
pub fn phase_margin_deg(ac: &AcResult, node: NodeId) -> Result<f64, MeasureError> {
    let fu = unity_gain_freq(ac, node).map_err(|_| MeasureError::NoCrossing {
        what: "no phase margin (no unity-gain crossing)".to_string(),
    })?;
    let idx = nearest_index(ac.frequencies(), fu).ok_or_else(|| MeasureError::EmptySweep {
        what: "phase margin".to_string(),
    })?;
    // Unwrap the phase from the start of the sweep so that the value at the
    // crossing is continuous (arg() alone wraps at ±π).
    let mut phase = 0.0;
    let mut last = ac.phasor(node, 0).arg();
    let mut acc = last;
    for i in 1..=idx {
        let p = ac.phasor(node, i).arg();
        let mut d = p - last;
        while d > std::f64::consts::PI {
            d -= 2.0 * std::f64::consts::PI;
        }
        while d < -std::f64::consts::PI {
            d += 2.0 * std::f64::consts::PI;
        }
        acc += d;
        last = p;
        phase = acc;
    }
    if idx == 0 {
        phase = ac.phasor(node, 0).arg();
    }
    Ok(180.0 + phase.to_degrees())
}

/// Time of the `nth` (1-based) crossing of `level` in the given direction,
/// with linear interpolation between samples.
///
/// # Errors
///
/// [`MeasureError::LengthMismatch`] when `times` and `wave` differ in
/// length; [`MeasureError::NoCrossing`] when fewer than `nth` crossings
/// exist.
pub fn cross_time(
    times: &[f64],
    wave: &[f64],
    level: f64,
    edge: Edge,
    nth: usize,
) -> Result<f64, MeasureError> {
    check_lengths("crossing time", times, wave)?;
    let mut count = 0;
    for i in 1..wave.len() {
        let (a, b) = (wave[i - 1], wave[i]);
        let hit = match edge {
            Edge::Rising => a < level && b >= level,
            Edge::Falling => a > level && b <= level,
            Edge::Any => (a < level && b >= level) || (a > level && b <= level),
        };
        if hit {
            count += 1;
            if count == nth {
                let frac = if (b - a).abs() > 0.0 {
                    (level - a) / (b - a)
                } else {
                    0.0
                };
                return Ok(times[i - 1] + frac * (times[i] - times[i - 1]));
            }
        }
    }
    Err(MeasureError::NoCrossing {
        what: format!("crossing #{nth} of level {level:.4} not found"),
    })
}

/// Delay between a crossing on a trigger waveform and a crossing on a target
/// waveform (both 1-based nth crossings).
///
/// # Errors
///
/// [`MeasureError::LengthMismatch`] when waveform lengths differ from the
/// time vector; [`MeasureError::NoCrossing`] when either crossing is
/// absent.
#[allow(clippy::too_many_arguments)]
pub fn delay(
    times: &[f64],
    trig: &[f64],
    trig_level: f64,
    trig_edge: Edge,
    trig_nth: usize,
    targ: &[f64],
    targ_level: f64,
    targ_edge: Edge,
) -> Result<f64, MeasureError> {
    check_lengths("delay target", times, targ)?;
    let t0 = cross_time(times, trig, trig_level, trig_edge, trig_nth)?;
    // First target crossing at or after the trigger.
    let mut count = 0;
    for i in 1..targ.len() {
        if times[i] < t0 {
            continue;
        }
        let (a, b) = (targ[i - 1], targ[i]);
        let hit = match targ_edge {
            Edge::Rising => a < targ_level && b >= targ_level,
            Edge::Falling => a > targ_level && b <= targ_level,
            Edge::Any => (a < targ_level && b >= targ_level) || (a > targ_level && b <= targ_level),
        };
        if hit {
            count += 1;
            if count == 1 {
                let frac = if (b - a).abs() > 0.0 {
                    (targ_level - a) / (b - a)
                } else {
                    0.0
                };
                let t1 = times[i - 1] + frac * (times[i] - times[i - 1]);
                return Ok(t1 - t0);
            }
        }
    }
    Err(MeasureError::NoCrossing {
        what: format!("target never crosses {targ_level:.4} after trigger"),
    })
}

/// Oscillation frequency from the median period between rising crossings of
/// the waveform mean, using the last `periods_to_use` periods (settled
/// behavior).
///
/// # Errors
///
/// [`MeasureError::TooFewSamples`] for waveforms under four samples,
/// [`MeasureError::LengthMismatch`] for unequal vectors, and
/// [`MeasureError::NoCrossing`] when the waveform does not oscillate
/// (fewer than two level crossings, or a non-positive median period).
pub fn osc_frequency(
    times: &[f64],
    wave: &[f64],
    periods_to_use: usize,
) -> Result<f64, MeasureError> {
    check_lengths("oscillation frequency", times, wave)?;
    if wave.len() < 4 {
        return Err(MeasureError::TooFewSamples {
            what: "oscillation frequency".to_string(),
            needed: 4,
            got: wave.len(),
        });
    }
    // Use the mean of the second half as the crossing level: the first half
    // may contain the start-up transient.
    let half = wave.len() / 2;
    let level = wave[half..].iter().sum::<f64>() / (wave.len() - half) as f64;
    let mut crossings = Vec::new();
    for i in 1..wave.len() {
        if wave[i - 1] < level && wave[i] >= level {
            let frac = (level - wave[i - 1]) / (wave[i] - wave[i - 1]);
            crossings.push(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
    }
    if crossings.len() < 2 {
        return Err(MeasureError::NoCrossing {
            what: "no oscillation (fewer than two mean crossings)".to_string(),
        });
    }
    let mut periods: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
    let keep = periods_to_use.max(1).min(periods.len());
    let tail = periods.split_off(periods.len() - keep);
    let mut tail = tail;
    tail.sort_by(|a, b| a.total_cmp(b));
    let median = tail[tail.len() / 2];
    if median > 0.0 {
        Ok(1.0 / median)
    } else {
        Err(MeasureError::NoCrossing {
            what: "no oscillation (non-positive median period)".to_string(),
        })
    }
}

/// Average of a waveform over `[t_start, t_end]` using trapezoidal weights.
/// An empty overlap between the window and the data averages to zero.
///
/// # Errors
///
/// [`MeasureError::LengthMismatch`] when `times` and `wave` differ in
/// length.
pub fn average(times: &[f64], wave: &[f64], t_start: f64, t_end: f64) -> Result<f64, MeasureError> {
    check_lengths("windowed average", times, wave)?;
    let mut area = 0.0;
    let mut span = 0.0;
    for i in 1..times.len() {
        let (t0, t1) = (times[i - 1], times[i]);
        if t1 < t_start || t0 > t_end {
            continue;
        }
        let a = t0.max(t_start);
        let b = t1.min(t_end);
        if b <= a {
            continue;
        }
        // Linear interior interpolation.
        let v = |t: f64| wave[i - 1] + (wave[i] - wave[i - 1]) * (t - t0) / (t1 - t0);
        area += 0.5 * (v(a) + v(b)) * (b - a);
        span += b - a;
    }
    if span > 0.0 {
        Ok(area / span)
    } else {
        Ok(0.0)
    }
}

/// Peak-to-peak swing over the second half of a waveform (settled region).
///
/// # Errors
///
/// [`MeasureError::TooFewSamples`] for waveforms under two samples (a
/// swing needs at least two points).
pub fn settled_peak_to_peak(wave: &[f64]) -> Result<f64, MeasureError> {
    if wave.len() < 2 {
        return Err(MeasureError::TooFewSamples {
            what: "settled peak-to-peak".to_string(),
            needed: 2,
            got: wave.len(),
        });
    }
    let half = wave.len() / 2;
    let tail = &wave[half..];
    let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    Ok(max - min)
}

/// Index of the sweep point nearest `f` (log distance); `None` on an
/// empty sweep.
fn nearest_index(freqs: &[f64], f: f64) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_d = f64::INFINITY;
    for (i, &fi) in freqs.iter().enumerate() {
        let d = (fi.ln() - f.ln()).abs();
        if d < best_d {
            best_d = d;
            best = Some(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::{AcSolver, FrequencySweep};
    use crate::netlist::Circuit;

    fn rc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, out, 1e3).unwrap();
        c.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        (c, out)
    }

    #[test]
    fn bw_3db_of_rc() {
        let (c, out) = rc_circuit();
        let res = AcSolver::new()
            .solve(
                &c,
                &FrequencySweep::Decade {
                    start: 1e3,
                    stop: 1e8,
                    points_per_decade: 40,
                },
            )
            .unwrap();
        let f3 = bw_3db(&res, out).unwrap();
        let expect = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        assert!((f3 - expect).abs() / expect < 0.02, "f3db {f3} vs {expect}");
    }

    #[test]
    fn gain_with_vcvs_and_ugf() {
        // VCVS gain 100 into an RC pole: UGF = 100 × f3dB approximately.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let amp = c.node("amp");
        let out = c.node("out");
        c.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        c.vcvs("E1", amp, Circuit::GROUND, vin, Circuit::GROUND, 100.0);
        c.resistor("R1", amp, out, 1e3).unwrap();
        c.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let res = AcSolver::new()
            .solve(
                &c,
                &FrequencySweep::Decade {
                    start: 1e3,
                    stop: 1e9,
                    points_per_decade: 40,
                },
            )
            .unwrap();
        assert!((dc_gain(&res, out).unwrap() - 100.0).abs() < 0.1);
        assert!((db(dc_gain(&res, out).unwrap()) - 40.0).abs() < 0.1);
        let fu = unity_gain_freq(&res, out).unwrap();
        let f3 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        // Single pole: fu ≈ gain·f3 when far above the pole.
        assert!((fu / (100.0 * f3) - 1.0).abs() < 0.05, "fu {fu}");
        // Phase margin of a single-pole system ≈ 90°.
        let pm = phase_margin_deg(&res, out).unwrap();
        assert!((pm - 90.0).abs() < 3.0, "pm {pm}");
    }

    #[test]
    fn phase_margin_two_pole_system() {
        // Gain 1000 through two RC poles at 1 MHz and 100 MHz: at the unity
        // crossing the phase has fallen well past −90°, so PM < 90°.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let a = c.node("a");
        let b = c.node("b");
        let out = c.node("out");
        c.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        c.vcvs("E1", a, Circuit::GROUND, vin, Circuit::GROUND, 1000.0);
        c.resistor("R1", a, b, 1e3).unwrap();
        c.capacitor("C1", b, Circuit::GROUND, 159.15e-12).unwrap(); // 1 MHz
        let buf = c.node("buf");
        c.vcvs("E2", buf, Circuit::GROUND, b, Circuit::GROUND, 1.0);
        c.resistor("R2", buf, out, 1e3).unwrap();
        c.capacitor("C2", out, Circuit::GROUND, 1.5915e-12).unwrap(); // 100 MHz
        let res = AcSolver::new()
            .solve(
                &c,
                &FrequencySweep::Decade {
                    start: 1e4,
                    stop: 10e9,
                    points_per_decade: 40,
                },
            )
            .unwrap();
        let pm = phase_margin_deg(&res, out).unwrap();
        // fu ≈ 1 GHz… second pole at 100 MHz contributes ≈ −84°; expect a
        // small positive margin well below the single-pole 90°.
        assert!(pm < 45.0, "pm {pm}");
        assert!(pm > -30.0, "pm {pm}");
    }

    #[test]
    fn crossing_freq_error_when_always_below() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        // Divider: response is 0.5 everywhere, never crossing 0.1 downward
        // from above 1.0.
        c.resistor("R1", vin, out, 1e3).unwrap();
        c.resistor("R2", out, Circuit::GROUND, 1e3).unwrap();
        let res = AcSolver::new()
            .solve(
                &c,
                &FrequencySweep::Decade {
                    start: 1e3,
                    stop: 1e6,
                    points_per_decade: 5,
                },
            )
            .unwrap();
        assert!(matches!(
            unity_gain_freq(&res, out),
            Err(MeasureError::NoCrossing { .. })
        ));
        assert!(matches!(
            phase_margin_deg(&res, out),
            Err(MeasureError::NoCrossing { .. })
        ));
    }

    #[test]
    fn cross_time_interpolates() {
        let t = [0.0, 1.0, 2.0, 3.0];
        let w = [0.0, 1.0, 0.0, 1.0];
        let c1 = cross_time(&t, &w, 0.5, Edge::Rising, 1).unwrap();
        assert!((c1 - 0.5).abs() < 1e-12);
        let c2 = cross_time(&t, &w, 0.5, Edge::Rising, 2).unwrap();
        assert!((c2 - 2.5).abs() < 1e-12);
        let cf = cross_time(&t, &w, 0.5, Edge::Falling, 1).unwrap();
        assert!((cf - 1.5).abs() < 1e-12);
        assert!(matches!(
            cross_time(&t, &w, 0.5, Edge::Rising, 3),
            Err(MeasureError::NoCrossing { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_are_typed_errors() {
        let t = [0.0, 1.0, 2.0];
        let w = [0.0, 1.0];
        assert!(matches!(
            cross_time(&t, &w, 0.5, Edge::Rising, 1),
            Err(MeasureError::LengthMismatch { .. })
        ));
        assert!(matches!(
            average(&t, &w, 0.0, 2.0),
            Err(MeasureError::LengthMismatch { .. })
        ));
        assert!(matches!(
            osc_frequency(&t, &w, 3),
            Err(MeasureError::LengthMismatch { .. })
        ));
        assert!(matches!(
            delay(&t, &w, 0.5, Edge::Rising, 1, &w, 0.5, Edge::Rising),
            Err(MeasureError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn short_waveforms_are_typed_errors() {
        assert!(matches!(
            settled_peak_to_peak(&[1.0]),
            Err(MeasureError::TooFewSamples { .. })
        ));
        assert!(matches!(
            osc_frequency(&[0.0, 1.0], &[0.0, 1.0], 3),
            Err(MeasureError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn delay_between_waveforms() {
        let t: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let trig: Vec<f64> = t.iter().map(|&x| if x > 2.0 { 1.0 } else { 0.0 }).collect();
        let targ: Vec<f64> = t.iter().map(|&x| if x > 5.0 { 1.0 } else { 0.0 }).collect();
        let d = delay(&t, &trig, 0.5, Edge::Rising, 1, &targ, 0.5, Edge::Rising).unwrap();
        assert!((d - 3.0).abs() < 0.11, "delay {d}");
    }

    #[test]
    fn osc_frequency_of_sine() {
        let f = 2.5e9;
        let t: Vec<f64> = (0..4000).map(|i| i as f64 * 1e-12).collect();
        let w: Vec<f64> = t
            .iter()
            .map(|&x| 0.4 + 0.3 * (2.0 * std::f64::consts::PI * f * x).sin())
            .collect();
        let est = osc_frequency(&t, &w, 4).unwrap();
        assert!((est - f).abs() / f < 0.01, "freq {est}");
    }

    #[test]
    fn flat_waveform_does_not_oscillate() {
        let t: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let w = vec![0.5; 16];
        assert!(matches!(
            osc_frequency(&t, &w, 4),
            Err(MeasureError::NoCrossing { .. })
        ));
    }

    #[test]
    fn average_windows_correctly() {
        let t = [0.0, 1.0, 2.0, 3.0, 4.0];
        let w = [0.0, 1.0, 1.0, 1.0, 0.0];
        // Average over [1, 3] is exactly 1.
        assert!((average(&t, &w, 1.0, 3.0).unwrap() - 1.0).abs() < 1e-12);
        // Average over the whole ramp-up-down: area = 0.5+1+1+0.5 = 3 over 4.
        assert!((average(&t, &w, 0.0, 4.0).unwrap() - 0.75).abs() < 1e-12);
        // A window outside the data averages to zero, not an error.
        assert_eq!(average(&t, &w, 10.0, 11.0).unwrap(), 0.0);
    }

    #[test]
    fn settled_peak_to_peak_ignores_startup() {
        let mut w = vec![10.0; 10];
        w.extend(vec![0.5, 1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5]);
        assert!((settled_peak_to_peak(&w).unwrap() - 1.0).abs() < 1e-12);
    }
}
