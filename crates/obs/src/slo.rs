//! SLO watchdogs: declarative per-epoch thresholds over timeline rows.
//!
//! An operator states what "healthy" means — a cap on the congestion
//! ratio vs. the fresh-sample baseline, a p99 epoch-wall budget, a floor
//! on the cache hit rate, a cap on the fallback fraction — and the
//! watchdog evaluates every published epoch against it, emitting one
//! structured [`warn!`](crate::warn) event per breach
//! (`SLO breach epoch=.. rule=.. value=.. threshold=..`), bumping the
//! `slo/breaches` counter, and accumulating a [`HealthSummary`] with
//! per-rule breach counts for the `/health` endpoint.
//!
//! Evaluation consumes recorded data only; it never feeds back into
//! routing, so breaches cannot perturb published routes.

use crate::timeline::EpochRecord;
use parking_lot::Mutex;

/// Declarative SLO thresholds. `None` disables a rule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloConfig {
    /// Max allowed `congestion / fresh_congestion` (quality-of-cache
    /// rule; skipped on epochs without a fresh baseline).
    pub max_congestion_ratio: Option<f64>,
    /// Max allowed p99 epoch wall time, milliseconds (skipped until the
    /// wall histogram has data).
    pub max_p99_epoch_wall_ms: Option<f64>,
    /// Min allowed cache hit rate over recent epochs, in `[0, 1]`
    /// (skipped until a hit rate is supplied).
    pub min_cache_hit_rate: Option<f64>,
    /// Max allowed `fallback_pairs / admitted` per epoch.
    pub max_fallback_fraction: Option<f64>,
}

impl SloConfig {
    /// All rules disabled (the default).
    pub fn disabled() -> Self {
        SloConfig::default()
    }

    /// Sane serving defaults: cached quality within 2x of fresh, p99
    /// epoch under a second, hit rate above half, fallback under a
    /// quarter of admitted demand.
    pub fn serving_defaults() -> Self {
        SloConfig {
            max_congestion_ratio: Some(2.0),
            max_p99_epoch_wall_ms: Some(1000.0),
            min_cache_hit_rate: Some(0.5),
            max_fallback_fraction: Some(0.25),
        }
    }

    /// Whether any rule is armed.
    pub fn is_armed(&self) -> bool {
        self.max_congestion_ratio.is_some()
            || self.max_p99_epoch_wall_ms.is_some()
            || self.min_cache_hit_rate.is_some()
            || self.max_fallback_fraction.is_some()
    }
}

/// The rule identifiers, in evaluation order (stable: exposition and
/// breach events use these names verbatim).
pub const SLO_RULES: [&str; 4] = [
    "max_congestion_ratio",
    "max_p99_epoch_wall_ms",
    "min_cache_hit_rate",
    "max_fallback_fraction",
];

/// One threshold violation on one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SloBreach {
    /// Epoch the violation happened on.
    pub epoch: u64,
    /// Rule identifier (one of [`SLO_RULES`]).
    pub rule: &'static str,
    /// Observed value.
    pub value: f64,
    /// Configured threshold.
    pub threshold: f64,
}

impl SloBreach {
    /// The structured event line emitted for this breach.
    pub fn event_line(&self) -> String {
        format!(
            "SLO breach epoch={} rule={} value={:.6} threshold={:.6}",
            self.epoch, self.rule, self.value, self.threshold
        )
    }
}

/// Live inputs a single [`EpochRecord`] cannot carry: tail latency from
/// the epoch-wall [`LogHistogram`](crate::LogHistogram) and the cache
/// hit rate over the current epoch and the journal's most recent
/// rows (the serving layer computes both).
#[derive(Clone, Copy, Debug, Default)]
pub struct SloInputs {
    /// Current p99 of epoch wall time, milliseconds, if observed.
    pub p99_epoch_wall_ms: Option<f64>,
    /// Cache hit rate over recent epochs, in `[0, 1]`, if computable.
    pub cache_hit_rate: Option<f64>,
}

/// Running health state: epochs evaluated and breach counts per rule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthSummary {
    /// Epochs the watchdog has evaluated.
    pub epochs_evaluated: u64,
    /// Total breaches across all rules.
    pub total_breaches: u64,
    /// Breach count per rule, in [`SLO_RULES`] order.
    pub breaches_by_rule: [u64; SLO_RULES.len()],
}

impl HealthSummary {
    /// `true` when no rule has ever been breached.
    pub fn healthy(&self) -> bool {
        self.total_breaches == 0
    }

    /// Text rendering for the `/health` endpoint and the dashboard
    /// footer.
    pub fn render(&self) -> String {
        let mut out = format!(
            "health: {} ({} epochs, {} breaches)\n",
            if self.healthy() { "ok" } else { "degraded" },
            self.epochs_evaluated,
            self.total_breaches
        );
        for (rule, count) in SLO_RULES.iter().zip(self.breaches_by_rule.iter()) {
            out.push_str(&format!("  {rule}: {count}\n"));
        }
        out
    }

    /// JSON rendering for the `/health` endpoint (`sor-health/1`): the
    /// counters plus per-rule breach counts, with the text headline
    /// embedded as `summary` (rule names and the headline contain no
    /// characters needing JSON escaping).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"format\":\"sor-health/1\",\"healthy\":{},\"epochs_evaluated\":{},\
             \"total_breaches\":{},\"summary\":\"health: {} ({} epochs, {} breaches)\",\
             \"breaches_by_rule\":{{",
            self.healthy(),
            self.epochs_evaluated,
            self.total_breaches,
            if self.healthy() { "ok" } else { "degraded" },
            self.epochs_evaluated,
            self.total_breaches
        );
        for (i, (rule, count)) in SLO_RULES
            .iter()
            .zip(self.breaches_by_rule.iter())
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{rule}\":{count}"));
        }
        out.push_str("}}\n");
        out
    }
}

/// Evaluates an [`SloConfig`] against each published epoch and keeps the
/// running [`HealthSummary`]. Thread-safe; evaluation is a short lock
/// around plain counters.
pub struct SloWatchdog {
    cfg: SloConfig,
    summary: Mutex<HealthSummary>,
}

impl SloWatchdog {
    /// Watchdog for `cfg` (a fully-disabled config never breaches).
    pub fn new(cfg: SloConfig) -> Self {
        SloWatchdog {
            cfg,
            summary: Mutex::new(HealthSummary::default()),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Evaluate one epoch. Returns the breaches (possibly empty) after
    /// logging each as a structured warn event and counting it into
    /// `slo/breaches` and the health summary.
    pub fn evaluate(&self, rec: &EpochRecord, inputs: SloInputs) -> Vec<SloBreach> {
        let mut breaches = Vec::new();
        if let (Some(max), Some(ratio)) = (self.cfg.max_congestion_ratio, rec.congestion_ratio()) {
            if ratio > max {
                breaches.push(SloBreach {
                    epoch: rec.epoch,
                    rule: SLO_RULES[0],
                    value: ratio,
                    threshold: max,
                });
            }
        }
        if let (Some(max), Some(p99)) = (self.cfg.max_p99_epoch_wall_ms, inputs.p99_epoch_wall_ms) {
            if p99 > max {
                breaches.push(SloBreach {
                    epoch: rec.epoch,
                    rule: SLO_RULES[1],
                    value: p99,
                    threshold: max,
                });
            }
        }
        if let (Some(min), Some(rate)) = (self.cfg.min_cache_hit_rate, inputs.cache_hit_rate) {
            if rate < min {
                breaches.push(SloBreach {
                    epoch: rec.epoch,
                    rule: SLO_RULES[2],
                    value: rate,
                    threshold: min,
                });
            }
        }
        if let Some(max) = self.cfg.max_fallback_fraction {
            if rec.admitted > 0 {
                #[allow(clippy::cast_precision_loss)]
                let frac = rec.fallback_pairs as f64 / rec.admitted as f64;
                if frac > max {
                    breaches.push(SloBreach {
                        epoch: rec.epoch,
                        rule: SLO_RULES[3],
                        value: frac,
                        threshold: max,
                    });
                }
            }
        }
        for b in &breaches {
            crate::warn!("{}", b.event_line());
            crate::count("slo/breaches", 1);
        }
        let mut summary = self.summary.lock();
        summary.epochs_evaluated += 1;
        summary.total_breaches += breaches.len() as u64;
        for b in &breaches {
            if let Some(i) = SLO_RULES.iter().position(|r| *r == b.rule) {
                summary.breaches_by_rule[i] += 1;
            }
        }
        breaches
    }

    /// Copy of the running health state.
    pub fn summary(&self) -> HealthSummary {
        self.summary.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_sink, take_captured, Sink};

    fn record() -> EpochRecord {
        EpochRecord {
            epoch: 7,
            admitted: 8,
            rejected: 0,
            cache_hit: false,
            cache_hits: 0,
            cache_misses: 1,
            cache_evictions: 0,
            cache_invalidations: 0,
            congestion: 3.0,
            fresh_congestion: Some(1.0),
            fallback_pairs: 4,
            unserved_pairs: 0,
            queue_depth: 0,
            failed_edges: 1,
            epoch_wall_ns: 5_000_000,
            slo_breaches: Vec::new(),
        }
    }

    #[test]
    fn disabled_config_never_breaches() {
        let w = SloWatchdog::new(SloConfig::disabled());
        assert!(!w.config().is_armed());
        let breaches = w.evaluate(&record(), SloInputs::default());
        assert!(breaches.is_empty());
        let s = w.summary();
        assert!(s.healthy());
        assert_eq!(s.epochs_evaluated, 1);
    }

    #[test]
    fn breaches_fire_count_and_log() {
        let _guard = crate::metrics::test_lock();
        set_sink(Sink::Memory);
        let _ = take_captured();
        let w = SloWatchdog::new(SloConfig {
            max_congestion_ratio: Some(2.0),
            max_p99_epoch_wall_ms: Some(1.0),
            min_cache_hit_rate: Some(0.9),
            max_fallback_fraction: Some(0.25),
        });
        assert!(w.config().is_armed());
        let breaches = w.evaluate(
            &record(),
            SloInputs {
                p99_epoch_wall_ms: Some(5.0),
                cache_hit_rate: Some(0.1),
            },
        );
        set_sink(Sink::Stderr);
        assert_eq!(breaches.len(), 4, "all four rules violated");
        assert_eq!(breaches[0].rule, "max_congestion_ratio");
        assert!((breaches[0].value - 3.0).abs() < 1e-12);
        let lines = take_captured();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains("SLO breach epoch=7 rule=max_congestion_ratio"),
            "structured event: {}",
            lines[0]
        );
        assert!(lines[0].contains("threshold=2.0"));
        let s = w.summary();
        assert!(!s.healthy());
        assert_eq!(s.total_breaches, 4);
        assert_eq!(s.breaches_by_rule, [1, 1, 1, 1]);
        let rendered = s.render();
        assert!(rendered.contains("degraded"));
        assert!(rendered.contains("min_cache_hit_rate: 1"));
    }

    #[test]
    fn within_threshold_epochs_stay_healthy() {
        let w = SloWatchdog::new(SloConfig::serving_defaults());
        let mut rec = record();
        rec.congestion = 1.1;
        rec.fallback_pairs = 1;
        let breaches = w.evaluate(
            &rec,
            SloInputs {
                p99_epoch_wall_ms: Some(2.0),
                cache_hit_rate: Some(0.8),
            },
        );
        assert!(breaches.is_empty());
        assert!(w.summary().healthy());
        assert!(w.summary().render().contains("ok"));
    }
}
