//! Correctness gates. Each compares what the program produced with
//! what it must produce and says how they differ.

use spector_live::LiveSummary;
use spector_store::StoreIntegrity;

/// A report read back from the store must equal the in-memory render
/// byte for byte.
pub fn same_report(in_memory: &str, from_store: &str) -> Result<(), String> {
    if in_memory == from_store {
        return Ok(());
    }
    let line = in_memory
        .lines()
        .zip(from_store.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| in_memory.lines().count().min(from_store.lines().count()));
    Err(format!(
        "stored report differs from the in-memory render at line {} ({} vs {} bytes)",
        line + 1,
        from_store.len(),
        in_memory.len()
    ))
}

/// No two campaigns render the same report: otherwise a point query
/// that read the wrong campaign would still match.
pub fn distinct_reports(reports: &[&str]) -> Result<(), String> {
    let distinct: std::collections::HashSet<&str> = reports.iter().copied().collect();
    if distinct.len() == reports.len() {
        Ok(())
    } else {
        Err(format!(
            "{} campaigns render only {} distinct reports",
            reports.len(),
            distinct.len()
        ))
    }
}

/// The store opened without rejected segments.
pub fn integrity_clean(integrity: &StoreIntegrity) -> Result<(), String> {
    match integrity.rejected.first() {
        None => Ok(()),
        Some((file, kind)) => Err(format!(
            "{} rejected segment(s), first {file}: {}",
            integrity.rejected.len(),
            kind.label()
        )),
    }
}

/// No operation failed.
pub fn no_failures(failed: u64, attempted: u64) -> Result<(), String> {
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} of {attempted} operations failed"))
    }
}

/// The live engine saw every frame sent and nothing was dropped.
pub fn all_frames_delivered(summary: &LiveSummary, sent: u64) -> Result<(), String> {
    if summary.events == sent && summary.dropped_events == 0 {
        Ok(())
    } else {
        Err(format!(
            "{sent} frames sent, {} events ingested, {} dropped",
            summary.events, summary.dropped_events
        ))
    }
}

/// The live summary equals the offline pipeline's, field for field —
/// the check `libspector live` makes on every invocation.
pub fn live_matches_offline(live: &LiveSummary, offline: &LiveSummary) -> Result<(), String> {
    let fields = [
        ("flows", live.flows == offline.flows),
        (
            "unattributed_flows",
            live.unattributed_flows == offline.unattributed_flows,
        ),
        ("per_library", live.per_library == offline.per_library),
        (
            "per_domain_category",
            live.per_domain_category == offline.per_domain_category,
        ),
        ("total_sent", live.total_sent == offline.total_sent),
        ("total_recv", live.total_recv == offline.total_recv),
        (
            "unjoined_reports",
            live.unjoined_reports() == offline.unjoined_reports(),
        ),
    ];
    let differing: Vec<&str> = fields
        .iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| *name)
        .collect();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "live summary diverged from the offline pipeline in {}",
            differing.join(", ")
        ))
    }
}

/// Totals a full-history scan must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanTotals {
    /// Campaigns covered.
    pub campaigns: u64,
    /// Analysis records.
    pub apps: u64,
    /// Flow records.
    pub flows: u64,
    /// Wire bytes sent plus received.
    pub bytes: u64,
}

/// A scan's totals equal the set-up side aggregate.
pub fn scan_matches(scanned: ScanTotals, expected: ScanTotals) -> Result<(), String> {
    if scanned == expected {
        Ok(())
    } else {
        Err(format!("scan totals {scanned:?}, expected {expected:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_gate_locates_the_first_difference() {
        assert!(same_report("a\nb\n", "a\nb\n").is_ok());
        let err = same_report("a\nb\n", "a\nc\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn frames_gate_counts_drops() {
        let summary = LiveSummary {
            events: 10,
            dropped_events: 1,
            ..Default::default()
        };
        assert!(all_frames_delivered(&summary, 10).is_err());
        assert!(all_frames_delivered(&summary, 11).is_err());
    }
}
