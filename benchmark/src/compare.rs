//! `compare A.json B.json`: one row per metric × workload with both values,
//! the ratio and its base, and a verdict against the benchmark's own bounds.

use crate::json::Json;
use crate::ledger::END_TO_END;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Better,
    /// The runs' own quartile spread exceeds the bound and the difference does
    /// not exceed the spread: the pair cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge a lower-is-better metric: `a` is the base, `b` the candidate,
/// `spread` the larger interquartile spread of the two sides' samples (as a
/// share of the median), `floor` an absolute change too small to matter.
pub fn verdict(a: f64, b: f64, bound: f64, spread: f64, floor: f64) -> Verdict {
    let excess = b / a - 1.0;
    if (b - a).abs() <= floor {
        Verdict::WithinBound
    } else if spread > bound && excess.abs() <= spread {
        Verdict::Unresolved
    } else if excess > bound {
        Verdict::Worse
    } else if excess < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn members<'a>(doc: &'a Json, key: &str) -> &'a [(String, Json)] {
    doc.get(key).and_then(Json::as_obj).unwrap_or_default()
}

fn value_of(metric: &Json) -> Option<f64> {
    metric.get("value").and_then(Json::as_f64)
}

/// `(failed, attempted)` checks of a ledger.
fn check_counts(doc: &Json) -> (f64, f64) {
    let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    (count("checks_failed"), count("checks_attempted"))
}

/// Compare two ledgers.  Returns the printed table and whether `b` is
/// acceptable: no `worse` row and no higher share of failed checks.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (doc, side) in [(a, "A"), (b, "B")] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{side} is a --quick ledger (or not a ledger): its numbers are never compared"
            ));
        }
    }
    let mut out = String::new();
    let mut acceptable = true;
    let mut unresolved = Vec::new();
    out.push_str(&format!(
        "{:<14} {:<30} {:>14} {:>14} {:>9}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "verdict"
    ));
    for (name, wa) in members(a, "workloads") {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            out.push_str(&format!("{name:<14} missing from B\n"));
            acceptable = false;
            continue;
        };
        for m in &END_TO_END {
            let side = |w: &Json| {
                let metric = w.get("end_to_end")?.get(m.name)?;
                Some((
                    value_of(metric)?,
                    Summary::from_json(metric.get("samples")?)?.spread(),
                ))
            };
            let (Some((va, sa)), Some((vb, sb))) = (side(wa), side(wb)) else {
                out.push_str(&format!("{name:<14} {:<30} missing on one side\n", m.name));
                acceptable = false;
                continue;
            };
            let spread = sa.max(sb);
            let v = verdict(va, vb, m.bound, spread, m.floor);
            acceptable &= v != Verdict::Worse;
            if v == Verdict::Unresolved {
                unresolved.push(format!(
                    "{name}.{}: spread {:.1} % > bound {:.0} %",
                    m.name,
                    spread * 100.0,
                    m.bound * 100.0
                ));
            }
            out.push_str(&format!(
                "{name:<14} {:<30} {va:>14.6} {vb:>14.6} {:>9.4}  {} (bound +{:.0} %, spread {:.1} %)\n",
                m.name,
                vb / va,
                v.label(),
                m.bound * 100.0,
                spread * 100.0
            ));
        }
        // Exact rows: digests and counts compare for identity, not by ratio.
        out.push_str(&format!(
            "{name:<14} {:<30} {:>14} {:>14} {:>9}  {}\n",
            "report digest",
            wa.get("digest").and_then(Json::as_str).unwrap_or("-"),
            wb.get("digest").and_then(Json::as_str).unwrap_or("-"),
            "",
            if wa.get("digest") == wb.get("digest") {
                "identical"
            } else {
                "differs"
            }
        ));
        for (metric, ma) in members(wa, "per_layer") {
            let (Some(va), Some(vb)) = (
                value_of(ma),
                wb.get("per_layer")
                    .and_then(|l| l.get(metric))
                    .and_then(value_of),
            ) else {
                continue;
            };
            let note = if ma.get("unit").and_then(Json::as_str) == Some("count") {
                if va == vb {
                    "identical"
                } else {
                    "differs"
                }
            } else {
                "info"
            };
            out.push_str(&format!(
                "{name:<14} {metric:<30} {va:>14.4} {vb:>14.4} {:>9.4}  {note}\n",
                vb / va
            ));
        }
    }
    for (metric, ma) in members(a, "layers") {
        if let (Some(va), Some(vb)) = (
            value_of(ma),
            b.get("layers")
                .and_then(|l| l.get(metric))
                .and_then(value_of),
        ) {
            out.push_str(&format!(
                "{:<14} {metric:<30} {va:>14.4} {vb:>14.4} {:>9.4}  info\n",
                "(layers)",
                vb / va
            ));
        }
    }
    let ((failed_a, attempted_a), (failed_b, attempted_b)) = (check_counts(a), check_counts(b));
    out.push_str(&format!(
        "failed checks: A {failed_a:.0}/{attempted_a:.0}, B {failed_b:.0}/{attempted_b:.0}\n"
    ));
    acceptable &= failed_b / attempted_b.max(1.0) <= failed_a / attempted_a.max(1.0);
    for line in &unresolved {
        out.push_str(&format!("unresolved: {line}\n"));
    }
    out.push_str(if acceptable {
        "result: B is within A's bounds\n"
    } else {
        "result: B is WORSE than A (see rows above)\n"
    });
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        use Verdict::*;
        // Quiet samples: the bound alone decides.
        assert_eq!(verdict(10.0, 10.5, 0.10, 0.02, 0.0), WithinBound);
        assert_eq!(verdict(10.0, 11.5, 0.10, 0.02, 0.0), Worse);
        assert_eq!(verdict(10.0, 8.5, 0.10, 0.02, 0.0), Better);
        // Noisy samples hide a difference no larger than their spread …
        assert_eq!(verdict(10.0, 11.5, 0.10, 0.20, 0.0), Unresolved);
        assert_eq!(verdict(10.0, 9.0, 0.10, 0.20, 0.0), Unresolved);
        // … but not one that exceeds it.
        assert_eq!(verdict(10.0, 20.0, 0.10, 0.20, 0.0), Worse);
        // A few milliseconds of set-up jitter never count.
        assert_eq!(verdict(0.004, 0.006, 0.25, 0.0, 0.02), WithinBound);
        assert_eq!(verdict(0.10, 0.16, 0.25, 0.0, 0.02), Worse);
    }

    fn ledger(run_s: f64, failed: u64, quick: bool) -> Json {
        let metric = |value: f64| {
            obj([
                ("value", Json::from(value)),
                (
                    "samples",
                    Summary::of(&[value, value * 1.01, value * 1.02])
                        .unwrap()
                        .to_json(),
                ),
            ])
        };
        obj([
            ("quick", Json::from(quick)),
            (
                "workloads",
                obj([(
                    "un_h8",
                    obj([
                        (
                            "end_to_end",
                            obj([
                                ("run_s", metric(run_s)),
                                ("peak_rss_mb", metric(160.0)),
                                ("setup_s", metric(0.2)),
                            ]),
                        ),
                        ("digest", Json::from("abc")),
                        (
                            "per_layer",
                            obj([(
                                "sim.cycles",
                                obj([("value", Json::from(600u64)), ("unit", Json::from("count"))]),
                            )]),
                        ),
                    ]),
                )]),
            ),
            (
                "layers",
                obj([("rng.next_ns", obj([("value", Json::from(1.5))]))]),
            ),
            ("checks_attempted", Json::from(10u64)),
            ("checks_failed", Json::from(failed)),
        ])
    }

    #[test]
    fn compare_accepts_equal_ledgers_and_rejects_regressions() {
        let base = ledger(6.0, 0, false);
        let (table, ok) = compare(&base, &ledger(6.1, 0, false)).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("within-bound") && table.contains("identical"));
        assert!(table.contains("rng.next_ns"));

        let (table, ok) = compare(&base, &ledger(8.0, 0, false)).unwrap();
        assert!(!ok && table.contains("worse"), "{table}");

        let (_, ok) = compare(&base, &ledger(6.0, 1, false)).unwrap();
        assert!(!ok, "a higher failed-check share must be rejected");

        let (table, ok) = compare(&base, &ledger(4.0, 0, false)).unwrap();
        assert!(ok && table.contains("better"));

        assert!(compare(&base, &ledger(6.0, 0, true)).is_err());
    }
}
