//! Plain-data profile reports: per-check-site outcome counts,
//! per-function tier residency, and tier-transition events.
//!
//! The VM's opt-in profiler (see `vm::VmConfig::profile`) fills these
//! in; the `table_profile` bench binary merges and renders them.  Everything here is ordinary data — no
//! atomics — because the VM is single-threaded per instance and merging
//! happens after runs complete.

use std::collections::BTreeMap;

use crate::json_escape;

/// Outcome counts for one check site (a source location label).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Checks that executed the backend call and passed.
    pub hits: u64,
    /// Checks that executed the backend call and failed (the backend
    /// reported a violation).  Only bounds/access checks report
    /// pass/fail to the VM; type/cast checks count as hits when they
    /// execute.
    pub misses: u64,
}

impl SiteCounts {
    /// Total dynamic occurrences of the site (every occurrence makes its
    /// backend call, so this is hits plus misses).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &SiteCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Tier residency for one function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuncCounts {
    /// Instructions retired in the slow tier.
    pub slow_instructions: u64,
    /// Instructions retired in the fast tier.
    pub fast_instructions: u64,
    /// Activations dispatched to the slow tier.
    pub slow_calls: u64,
    /// Activations dispatched to the fast tier.
    pub fast_calls: u64,
    /// Times the function was translated to the fast tier.
    pub promotions: u64,
    /// On-stack replacements into the fast tier mid-activation.
    pub osr_entries: u64,
}

impl FuncCounts {
    /// Total instructions across both tiers.
    pub fn total_instructions(&self) -> u64 {
        self.slow_instructions + self.fast_instructions
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &FuncCounts) {
        self.slow_instructions += other.slow_instructions;
        self.fast_instructions += other.fast_instructions;
        self.slow_calls += other.slow_calls;
        self.fast_calls += other.fast_calls;
        self.promotions += other.promotions;
        self.osr_entries += other.osr_entries;
    }
}

/// One tier-transition event, in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierEvent {
    /// Function name.
    pub func: String,
    /// Why the transition happened: `"promoted-after-calls"` or
    /// `"osr-after-backjumps"`.
    pub reason: String,
    /// The threshold value that triggered it (call count or backjump
    /// count).
    pub detail: u64,
}

/// A complete profile of one or more runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-check-site outcome counts, keyed by site label.
    pub sites: Vec<(String, SiteCounts)>,
    /// Per-function tier residency, keyed by function name.
    pub funcs: Vec<(String, FuncCounts)>,
    /// Tier-transition events in the order they happened (concatenated
    /// across merged runs).
    pub events: Vec<TierEvent>,
}

impl ProfileReport {
    /// Fold `other` into `self`, summing counts by name.
    pub fn merge(&mut self, other: &ProfileReport) {
        let mut sites: BTreeMap<String, SiteCounts> = self.sites.drain(..).collect();
        for (name, counts) in &other.sites {
            sites.entry(name.clone()).or_default().merge(counts);
        }
        self.sites = sites.into_iter().collect();
        let mut funcs: BTreeMap<String, FuncCounts> = self.funcs.drain(..).collect();
        for (name, counts) in &other.funcs {
            funcs.entry(name.clone()).or_default().merge(counts);
        }
        self.funcs = funcs.into_iter().collect();
        self.events.extend(other.events.iter().cloned());
    }

    /// The `n` hottest check sites by total dynamic occurrences
    /// (ties broken by label, so the order is deterministic).
    pub fn hot_sites(&self, n: usize) -> Vec<(String, SiteCounts)> {
        let mut sites = self.sites.clone();
        sites.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then_with(|| a.0.cmp(&b.0)));
        sites.truncate(n);
        sites
    }

    /// The `n` hottest functions by total instructions (ties broken by
    /// name).
    pub fn hot_funcs(&self, n: usize) -> Vec<(String, FuncCounts)> {
        let mut funcs = self.funcs.clone();
        funcs.sort_by(|a, b| {
            b.1.total_instructions()
                .cmp(&a.1.total_instructions())
                .then_with(|| a.0.cmp(&b.0))
        });
        funcs.truncate(n);
        funcs
    }

    /// Render the top-`n` hot-site / hot-function tables as text.
    pub fn render_table(&self, n: usize) -> String {
        let mut out = String::new();
        let rule = "-".repeat(86);
        out.push_str(&format!(
            "{:<38} {:>10} {:>10}\n{rule}\n",
            "check site", "hits", "misses"
        ));
        for (label, c) in self.hot_sites(n) {
            out.push_str(&format!("{:<38} {:>10} {:>10}\n", label, c.hits, c.misses));
        }
        out.push_str(&format!(
            "\n{:<24} {:>12} {:>12} {:>8} {:>8} {:>6} {:>6}\n{rule}\n",
            "function", "slow instrs", "fast instrs", "slow#", "fast#", "promo", "osr"
        ));
        for (name, c) in self.hot_funcs(n) {
            out.push_str(&format!(
                "{:<24} {:>12} {:>12} {:>8} {:>8} {:>6} {:>6}\n",
                name,
                c.slow_instructions,
                c.fast_instructions,
                c.slow_calls,
                c.fast_calls,
                c.promotions,
                c.osr_entries
            ));
        }
        out
    }

    /// Render the full report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sites\":[");
        for (i, (label, c)) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"site\":\"{}\",\"hits\":{},\"misses\":{}}}",
                json_escape(label),
                c.hits,
                c.misses
            ));
        }
        out.push_str("],\"funcs\":[");
        for (i, (name, c)) in self.funcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"func\":\"{}\",\"slow_instructions\":{},\"fast_instructions\":{},\
                 \"slow_calls\":{},\"fast_calls\":{},\"promotions\":{},\"osr_entries\":{}}}",
                json_escape(name),
                c.slow_instructions,
                c.fast_instructions,
                c.slow_calls,
                c.fast_calls,
                c.promotions,
                c.osr_entries
            ));
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"func\":\"{}\",\"reason\":\"{}\",\"detail\":{}}}",
                json_escape(&e.func),
                json_escape(&e.reason),
                e.detail
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(hits: u64, misses: u64) -> SiteCounts {
        SiteCounts { hits, misses }
    }

    #[test]
    fn merge_sums_by_name_and_sorts() {
        let mut a = ProfileReport {
            sites: vec![("x.c:2".into(), site(5, 0))],
            funcs: vec![(
                "main".into(),
                FuncCounts {
                    slow_instructions: 10,
                    ..Default::default()
                },
            )],
            events: vec![],
        };
        let b = ProfileReport {
            sites: vec![("a.c:1".into(), site(1, 1)), ("x.c:2".into(), site(2, 1))],
            funcs: vec![(
                "main".into(),
                FuncCounts {
                    fast_instructions: 7,
                    ..Default::default()
                },
            )],
            events: vec![TierEvent {
                func: "main".into(),
                reason: "promoted-after-calls".into(),
                detail: 2,
            }],
        };
        a.merge(&b);
        assert_eq!(a.sites.len(), 2);
        assert_eq!(a.sites[0].0, "a.c:1");
        assert_eq!(a.sites[1].1, site(7, 1));
        assert_eq!(a.funcs[0].1.total_instructions(), 17);
        assert_eq!(a.events.len(), 1);
    }

    #[test]
    fn hot_sites_order_by_total_then_label() {
        let report = ProfileReport {
            sites: vec![
                ("b".into(), site(4, 0)),
                ("a".into(), site(3, 1)),
                ("c".into(), site(1, 0)),
            ],
            funcs: vec![],
            events: vec![],
        };
        let hot = report.hot_sites(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, "a");
        assert_eq!(hot[1].0, "b");
    }

    #[test]
    fn json_names_every_site() {
        let report = ProfileReport {
            sites: vec![("w.c:9".into(), site(3, 1))],
            funcs: vec![],
            events: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"site\":\"w.c:9\""), "{json}");
        assert!(json.contains("\"hits\":3,\"misses\":1"), "{json}");
    }
}
