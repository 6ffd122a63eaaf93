//! The correctness gate behind `ok_frac`, and the result digests it
//! compares.
//!
//! Every simulation and every service pass the benchmark runs is checked;
//! a failed check is counted, reported on standard error, and turns the
//! run's `correct` flag false. A digest is FNV-1a over a canonical,
//! field-by-field encoding of a result, so two results with equal digests
//! agree on every job record and every counter.

use resmatch_sim::SimResult;

/// Counts checked outputs and the ones that failed.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checked outputs.
    pub attempted: u64,
    /// Checked outputs that failed.
    pub failed: u64,
}

impl Gate {
    /// Record one checked output.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {why}");
        }
    }

    /// Share of checked outputs that passed (1 when nothing was checked).
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Incremental FNV-1a, fed whole words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in a float by its bit pattern (exact, no formatting).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Mix every observable field of a simulation result into `h`.
pub fn digest_sim(h: &mut Fnv, r: &SimResult) {
    h.bytes(r.estimator.as_bytes());
    for v in [
        r.completed_jobs as u64,
        r.dropped_jobs as u64,
        r.total_executions,
        r.failed_executions,
        r.events_processed,
        u64::from(r.total_nodes),
        r.first_submit.as_millis(),
        r.last_completion.as_millis(),
    ] {
        h.u64(v);
    }
    for v in [
        r.goodput_node_seconds,
        r.wasted_node_seconds,
        r.mean_queue_length,
        r.mean_busy_nodes,
    ] {
        h.f64(v);
    }
    let c = &r.counters;
    for v in [
        c.arrivals,
        c.admissions,
        c.started,
        c.completed,
        c.failed,
        c.requeued,
        c.estimator_bypassed,
        c.churn_events,
        c.match_attempts,
        c.match_refusals,
    ] {
        h.u64(v);
    }
    for p in &r.pool_stats {
        h.u64(p.mem_kb);
        h.u64(u64::from(p.nodes));
        h.f64(p.mean_busy_fraction);
    }
    for rec in &r.records {
        h.u64(rec.id.0);
        h.u64(rec.submit.as_millis());
        h.u64(rec.final_start.as_millis());
        h.u64(rec.completion.as_millis());
        h.u64(rec.runtime.as_millis());
        h.u64(u64::from(rec.nodes));
        h.u64(u64::from(rec.failed_executions));
        h.u64(u64::from(rec.lowered) | u64::from(rec.benefited) << 1);
        h.f64(rec.wasted_node_seconds);
    }
}

/// The per-simulation check: every input job is accounted for, every
/// arrival fired, and no job started before it was submitted.
pub fn check_sim(r: &SimResult, input_jobs: usize) -> Result<(), String> {
    if r.completed_jobs + r.dropped_jobs != input_jobs {
        return Err(format!(
            "completed {} + dropped {} != {input_jobs} input jobs",
            r.completed_jobs, r.dropped_jobs
        ));
    }
    if r.counters.arrivals != input_jobs as u64 {
        return Err(format!(
            "{} arrivals for {input_jobs} input jobs",
            r.counters.arrivals
        ));
    }
    if r.records.len() != r.completed_jobs {
        return Err(format!(
            "{} records for {} completed jobs",
            r.records.len(),
            r.completed_jobs
        ));
    }
    if let Some(rec) = r.records.iter().find(|rec| rec.final_start < rec.submit) {
        return Err(format!("job {} started before its submission", rec.id.0));
    }
    Ok(())
}

/// The cross-repetition check: a repetition's digest must equal the first
/// one's, and at the default seed and full scale the pinned value.
pub fn check_digest(got: u64, first: u64, pinned: Option<u64>) -> Result<(), String> {
    if got != first {
        return Err(format!(
            "digest {got:#018x} differs from the first repetition's {first:#018x}"
        ));
    }
    match pinned {
        Some(want) if want != got => Err(format!(
            "digest {got:#018x} differs from the pinned {want:#018x}"
        )),
        _ => Ok(()),
    }
}
