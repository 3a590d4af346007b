//! Message-sequence-chart rendering from simulation traces.
//!
//! The paper presents its protocols as message diagrams (Fig. 1 for
//! 2PC, Fig. 2 for 3PC, Fig. 9 for the quorum commit protocol). This
//! module regenerates those diagrams from *executed runs*: every
//! delivered message of a trace becomes one row of an ASCII chart with
//! one column per site.

use qbc_simnet::{SiteId, Time, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One rendered chart row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Delivery time.
    pub at: Time,
    /// Sender.
    pub from: SiteId,
    /// Receiver.
    pub to: SiteId,
    /// Message label.
    pub label: &'static str,
}

/// Extracts the delivered-message hops of a trace, in delivery order.
pub fn hops(trace: &[TraceEvent]) -> Vec<Hop> {
    trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Delivered {
                at,
                from,
                to,
                label,
            } => Some(Hop {
                at: *at,
                from: *from,
                to: *to,
                label,
            }),
            _ => None,
        })
        .collect()
}

/// Renders an ASCII message sequence chart: one column per site, one
/// row per delivered message, arrows pointing from sender to receiver.
///
/// `sites` fixes the column order (pass every site of the run).
pub fn render(trace: &[TraceEvent], sites: &[SiteId]) -> String {
    const COL: usize = 12;
    let index: BTreeMap<SiteId, usize> = sites.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut out = String::new();
    // Header.
    let _ = write!(out, "{:>6} ", "t");
    for s in sites {
        let _ = write!(out, "{:^COL$}", s.to_string());
    }
    out.push('\n');
    for hop in hops(trace) {
        let (Some(&a), Some(&b)) = (index.get(&hop.from), index.get(&hop.to)) else {
            continue;
        };
        let _ = write!(out, "{:>6} ", hop.at.0);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            // Self-delivery: mark in place.
            for i in 0..sites.len() {
                if i == lo {
                    let _ = write!(out, "{:^COL$}", format!("({})", hop.label));
                } else {
                    let _ = write!(out, "{:^COL$}", "|");
                }
            }
        } else {
            // Lay the label across the span between the two columns.
            let span_cols = hi - lo + 1;
            let width = span_cols * COL;
            let arrow = if a < b {
                format!("{}>", hop.label)
            } else {
                format!("<{}", hop.label)
            };
            let body = format!("{arrow:-^w$}", w = width.saturating_sub(2));
            for i in 0..sites.len() {
                if i == lo {
                    let _ = write!(out, "{body}");
                } else if i > lo && i <= hi {
                    // consumed by the span
                } else {
                    let _ = write!(out, "{:^COL$}", "|");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Renders only hops with one of the given labels (e.g. just the
/// commit-protocol messages, skipping elections).
pub fn render_filtered(trace: &[TraceEvent], sites: &[SiteId], labels: &[&str]) -> String {
    let filtered: Vec<TraceEvent> = trace
        .iter()
        .filter(|e| match e {
            TraceEvent::Delivered { label, .. } => labels.contains(label),
            _ => false,
        })
        .cloned()
        .collect();
    render(&filtered, sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_simnet::Fault;

    fn ev(at: u64, from: u32, to: u32, label: &'static str) -> TraceEvent {
        TraceEvent::Delivered {
            at: Time(at),
            from: SiteId(from),
            to: SiteId(to),
            label,
        }
    }

    #[test]
    fn hops_extracts_only_deliveries() {
        let trace = vec![
            ev(1, 0, 1, "VOTE-REQ"),
            TraceEvent::Fault {
                at: Time(2),
                fault: Fault::Crash(SiteId(0)),
            },
            ev(3, 1, 0, "VOTE-YES"),
        ];
        let h = hops(&trace);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].label, "VOTE-REQ");
        assert_eq!(h[1].from, SiteId(1));
    }

    #[test]
    fn render_produces_one_row_per_hop_plus_header() {
        let trace = vec![ev(1, 0, 2, "VOTE-REQ"), ev(2, 2, 0, "VOTE-YES")];
        let sites = [SiteId(0), SiteId(1), SiteId(2)];
        let chart = render(&trace, &sites);
        assert_eq!(chart.lines().count(), 3);
        assert!(chart.contains("VOTE-REQ>"));
        assert!(chart.contains("<VOTE-YES"));
    }

    #[test]
    fn self_delivery_renders_in_place() {
        let trace = vec![ev(1, 1, 1, "COMMIT")];
        let chart = render(&trace, &[SiteId(0), SiteId(1)]);
        assert!(chart.contains("(COMMIT)"));
    }

    #[test]
    fn filter_keeps_only_requested_labels() {
        let trace = vec![ev(1, 0, 1, "VOTE-REQ"), ev(2, 0, 1, "ELECTION")];
        let chart = render_filtered(&trace, &[SiteId(0), SiteId(1)], &["VOTE-REQ"]);
        assert!(chart.contains("VOTE-REQ"));
        assert!(!chart.contains("ELECTION"));
    }
}
