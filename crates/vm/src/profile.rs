//! The opt-in VM/tier site profiler.
//!
//! Enabled by [`VmConfig::profile`](crate::VmConfig::profile); when off
//! (the default) the interpreter pays one predictable `Option` test per
//! would-be sample and nothing else.  When on, the profiler records
//!
//! * per-check-site outcome counts — hit (backend call passed) and miss
//!   (backend call reported a violation); every executed check site makes
//!   its backend call in both tiers, so hits + misses is the site's
//!   execution count;
//! * per-function tier residency — instructions retired and activations
//!   dispatched in each tier;
//! * promotion and OSR events, in order, with the triggering counter.
//!
//! Profiling is observational only: it never feeds back into execution,
//! so a profiled run's `RunReport` is bit-identical to an unprofiled
//! one (pinned by the tiered differential suite).

use std::collections::HashMap;
use std::sync::Arc;

use obs::{FuncCounts, ProfileReport, SiteCounts, TierEvent};

/// Sample sink owned by a [`Vm`](crate::Vm) when profiling is enabled.
#[derive(Debug, Default)]
pub(crate) struct VmProfiler {
    /// Per-site outcome counts, keyed by the interned site label.
    sites: HashMap<Arc<str>, SiteCounts>,
    /// Per-function residency, parallel to the VM's function table.
    funcs: Vec<(String, FuncCounts)>,
    /// Tier transitions in program order.
    events: Vec<TierEvent>,
}

impl VmProfiler {
    /// A profiler over the VM's function table (in table order).
    pub(crate) fn new(func_names: Vec<String>) -> Self {
        VmProfiler {
            sites: HashMap::new(),
            funcs: func_names
                .into_iter()
                .map(|name| (name, FuncCounts::default()))
                .collect(),
            events: Vec::new(),
        }
    }

    /// A check executed its backend call: `passed` per the backend's
    /// verdict (type/cast checks, which report no verdict, pass `true`).
    #[inline]
    pub(crate) fn check(&mut self, loc: &Arc<str>, passed: bool) {
        let s = self.sites.entry(Arc::clone(loc)).or_default();
        if passed {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
    }

    /// One instruction retired in the slow tier of function `idx`.
    #[inline]
    pub(crate) fn slow_instr(&mut self, idx: u32) {
        if let Some((_, c)) = self.funcs.get_mut(idx as usize) {
            c.slow_instructions += 1;
        }
    }

    /// `n` instructions retired in the fast tier of function `idx`.
    #[inline]
    pub(crate) fn fast_instrs(&mut self, idx: u32, n: u64) {
        if let Some((_, c)) = self.funcs.get_mut(idx as usize) {
            c.fast_instructions += n;
        }
    }

    /// An activation dispatched to the slow tier.
    #[inline]
    pub(crate) fn slow_call(&mut self, idx: u32) {
        if let Some((_, c)) = self.funcs.get_mut(idx as usize) {
            c.slow_calls += 1;
        }
    }

    /// An activation dispatched to the fast tier.
    #[inline]
    pub(crate) fn fast_call(&mut self, idx: u32) {
        if let Some((_, c)) = self.funcs.get_mut(idx as usize) {
            c.fast_calls += 1;
        }
    }

    /// Function `idx` was translated to the fast tier.
    pub(crate) fn promoted(&mut self, idx: u32, reason: &str, detail: u64) {
        if let Some((name, c)) = self.funcs.get_mut(idx as usize) {
            c.promotions += 1;
            self.events.push(TierEvent {
                func: name.clone(),
                reason: reason.to_string(),
                detail,
            });
        }
    }

    /// A slow activation of function `idx` switched to the fast tier
    /// mid-flight.
    pub(crate) fn osr_entry(&mut self, idx: u32, backjumps: u64) {
        if let Some((name, c)) = self.funcs.get_mut(idx as usize) {
            c.osr_entries += 1;
            self.events.push(TierEvent {
                func: name.clone(),
                reason: "osr-after-backjumps".to_string(),
                detail: backjumps,
            });
        }
    }

    /// Snapshot the collected profile as a plain-data report (sites and
    /// functions sorted by name; functions that never ran are dropped).
    pub(crate) fn report(&self) -> ProfileReport {
        let mut sites: Vec<(String, SiteCounts)> = self
            .sites
            .iter()
            .map(|(loc, c)| (loc.to_string(), *c))
            .collect();
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        let mut funcs: Vec<(String, FuncCounts)> = self
            .funcs
            .iter()
            .filter(|(_, c)| *c != FuncCounts::default())
            .cloned()
            .collect();
        funcs.sort_by(|a, b| a.0.cmp(&b.0));
        ProfileReport {
            sites,
            funcs,
            events: self.events.clone(),
        }
    }
}
