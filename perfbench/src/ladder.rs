//! The fixed rate ladder behind `max_rps_at_slo`: which rungs kept up,
//! and the highest rate that meets the limits.

/// What one rung of offered load measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Nearest-rank p90 latency, ms (infinite when a request was refused).
    pub p90_ms: f64,
    /// Least-squares slope of the outstanding requests over the rung,
    /// requests per second.
    pub backlog_slope: f64,
    /// False when the generator fell behind its schedule, so the load was
    /// not actually offered.
    pub generator_valid: bool,
}

impl Rung {
    /// How close the rung came to its limits: the larger of p90 over the
    /// latency limit and the backlog slope over `share` of the offered
    /// rate. A rung whose pressure exceeds 1 missed a limit.
    pub fn pressure(&self, slo_p90_ms: f64, share: f64) -> f64 {
        (self.p90_ms / slo_p90_ms).max(self.backlog_slope / (share * self.rate))
    }

    /// The rung met the latency limit without a growing backlog.
    pub fn passes(&self, slo_p90_ms: f64, share: f64) -> bool {
        self.generator_valid && self.pressure(slo_p90_ms, share) <= 1.0
    }
}

/// Outcome of a ladder climb.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// Every rung measured, in ladder order.
    pub rungs: Vec<Rung>,
    /// The highest rate that meets both limits: the last passing rung's
    /// rate, raised towards the first failing rung by linear interpolation of
    /// the two rungs' pressures, so the figure is not quantised to the
    /// rung spacing. `None` when the first rung failed.
    pub max_rate: Option<f64>,
}

/// Climbs `rates` in order, measuring each rung with `measure`, and stops
/// at the first rung that fails. `share` is the backlog slope, as a share
/// of the offered rate, above which a backlog counts as growing.
pub fn climb(
    rates: &[f64],
    slo_p90_ms: f64,
    share: f64,
    mut measure: impl FnMut(usize, f64) -> Rung,
) -> Ladder {
    let mut rungs: Vec<Rung> = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let rung = measure(i, rate);
        rungs.push(rung);
        if !rung.passes(slo_p90_ms, share) {
            break;
        }
    }
    let passed = rungs
        .iter()
        .take_while(|r| r.passes(slo_p90_ms, share))
        .count();
    let max_rate = passed.checked_sub(1).map(|b| {
        let lo = rungs[b];
        match rungs.get(b + 1) {
            // A rung that failed only because its generator lagged says
            // nothing about the limits: stay on the last passing rung.
            Some(hi) if hi.generator_valid => {
                let (p, q) = (
                    lo.pressure(slo_p90_ms, share),
                    hi.pressure(slo_p90_ms, share).min(1e6),
                );
                lo.rate + (hi.rate - lo.rate) * (1.0 - p) / (q - p)
            }
            _ => lo.rate,
        }
    });
    Ladder { rungs, max_rate }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARE: f64 = 0.05;

    /// An M/M/1-like service of capacity `cap`: p90 wait grows as
    /// 1/(1 − ρ), and past capacity the backlog grows at the excess rate.
    fn synthetic(cap: f64, service_ms: f64) -> impl FnMut(usize, f64) -> Rung {
        move |_, rate| {
            let rho = rate / cap;
            let p90_ms = if rho < 1.0 {
                service_ms * 2.3 / (1.0 - rho)
            } else {
                f64::INFINITY
            };
            Rung {
                rate,
                p90_ms,
                backlog_slope: (rate - cap).max(0.0),
                generator_valid: true,
            }
        }
    }

    #[test]
    fn climb_stops_at_the_first_failure_and_interpolates_the_crossing() {
        let rates = [40.0, 80.0, 90.0, 100.0, 110.0, 120.0];
        // p90 at 80 rps: 10 * 2.3 / 0.2 = 115 ms; at 90 rps: 230 ms.
        let l = climb(&rates, 200.0, SHARE, synthetic(100.0, 10.0));
        assert_eq!(l.rungs.len(), 3);
        // Pressures 0.575 at 80 and 1.15 at 90: the crossing is at 87.4.
        let r = l.max_rate.unwrap();
        assert!((r - (80.0 + 10.0 * 0.425 / 0.575)).abs() < 1e-9, "{r}");
        assert!(r > 80.0 && r < 90.0);
    }

    #[test]
    fn past_capacity_the_backlog_fails_the_rung_whatever_the_limit() {
        let rates = [40.0, 80.0, 90.0, 100.0, 110.0, 120.0];
        let l = climb(&rates, f64::INFINITY, SHARE, synthetic(100.0, 10.0));
        // 100 rps: slope 0 passes; 110 rps: slope 10 > 0.05 * 110 fails.
        assert_eq!(l.rungs.len(), 5);
        let r = l.max_rate.unwrap();
        // Pressure 0 at 100 and 10 / 5.5 at 110: crossing at 105.5.
        assert!((r - 105.5).abs() < 1e-9, "{r}");
    }

    #[test]
    fn an_infinite_p90_still_interpolates_inside_the_bracket() {
        let rates = [40.0, 80.0];
        let l = climb(&rates, 200.0, SHARE, |_, rate| Rung {
            rate,
            p90_ms: if rate < 50.0 { 100.0 } else { f64::INFINITY },
            backlog_slope: 0.0,
            generator_valid: true,
        });
        let r = l.max_rate.unwrap();
        assert!((40.0..40.001).contains(&r), "{r}");
    }

    #[test]
    fn a_rung_whose_generator_lagged_cannot_pass() {
        let rates = [40.0, 80.0, 90.0];
        let mut lagging = synthetic(100.0, 10.0);
        let l = climb(&rates, 1000.0, SHARE, |i, r| Rung {
            generator_valid: i != 1,
            ..lagging(i, r)
        });
        assert_eq!(l.rungs.len(), 2);
        assert_eq!(
            l.max_rate,
            Some(40.0),
            "no interpolation into a lagged rung"
        );
        let l = climb(&rates, 1.0, SHARE, synthetic(100.0, 10.0));
        assert_eq!(l.max_rate, None);
    }
}
