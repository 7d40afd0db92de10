//! Deterministic batch compilation: many netlists through one configured
//! [`Merced`] on a worker pool.
//!
//! Each circuit is an independent job, so batch compilation is trivially
//! deterministic: jobs are handed to [`ppet_exec::Pool::par_map`] and the
//! results come back in input order regardless of which worker ran which
//! job. The aggregate summary manifest is assembled by the calling thread
//! in job order, so its counter totals — the per-job `flow.*`,
//! `partition.*`, `assign.*`, and `cost.*` counters merged across the
//! whole batch — are byte-identical at any worker count. Only the
//! wall-clock fields and the `jobs` config entry (which records the
//! resource decision itself) vary.

use ppet_exec::Pool;
use ppet_netlist::Circuit;
use ppet_trace::RunManifest;

use crate::error::MercedError;
use crate::merced::Merced;
use crate::report::PpetReport;

/// The result of [`compile_batch`]: per-job outcomes in input order plus
/// the aggregate summary manifest.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One entry per input circuit, in input order: the circuit name and
    /// its compilation result.
    pub results: Vec<(String, Result<PpetReport, MercedError>)>,
    /// The aggregate manifest: one phase per successful job (named after
    /// its circuit, carrying that job's counter totals and wall time), and
    /// totals merging every job's counters into the shared namespaces.
    pub summary: RunManifest,
}

impl BatchOutcome {
    /// Number of jobs that compiled successfully.
    #[must_use]
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|(_, r)| r.is_ok()).count()
    }

    /// Number of jobs that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.results.len() - self.succeeded()
    }

    /// One [`RunManifest`] per successful job, in input order.
    #[must_use]
    pub fn manifests(&self) -> Vec<RunManifest> {
        self.results
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok().map(PpetReport::run_manifest))
            .collect()
    }

    /// The Tables 10/11-style text summary: a header, one row per
    /// successful job, and one `name: error` line per failure.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = PpetReport::table10_header();
        for (name, result) in &self.results {
            out.push('\n');
            match result {
                Ok(report) => out.push_str(&report.table10_row()),
                Err(e) => out.push_str(&format!("{name}: FAILED: {e}")),
            }
        }
        out
    }
}

/// Compiles every circuit in `circuits` with `merced`, scheduling the jobs
/// on `pool`.
///
/// Results are returned in input order and are bit-identical to compiling
/// the circuits one by one — the worker count changes wall-clock time,
/// never the output. Failures are per-job: one bad netlist does not stop
/// the batch.
#[must_use]
pub fn compile_batch(merced: &Merced, circuits: &[Circuit], pool: &Pool) -> BatchOutcome {
    let results: Vec<(String, Result<PpetReport, MercedError>)> = pool
        .par_map(circuits, |_, circuit| {
            (circuit.name().to_owned(), merced.compile(circuit))
        });

    let mut summary = RunManifest::new("batch", merced.config().seed);
    summary.push_config("cbit_length", merced.config().cbit_length);
    summary.push_config("beta", merced.config().beta);
    summary.push_config("jobs", pool.workers());
    summary.push_config("circuits", circuits.len());
    summary.push_config(
        "failures",
        results.iter().filter(|(_, r)| r.is_err()).count(),
    );
    // One summary phase per successful job, in job order: the job's
    // counter totals under its circuit name. compute_totals then merges
    // every job's counters into the batch-wide flow.* / partition.* /
    // assign.* / cost.* totals.
    for (name, result) in &results {
        if let Ok(report) = result {
            let mut counters: Vec<(String, u64)> = Vec::new();
            for phase in &report.phases {
                for (counter, value) in &phase.counters {
                    match counters.iter_mut().find(|(n, _)| n == counter) {
                        Some((_, total)) => *total += value,
                        None => counters.push((counter.clone(), *value)),
                    }
                }
            }
            let wall_ns = u64::try_from(report.elapsed.as_nanos())
                .unwrap_or(u64::MAX)
                .max(1);
            summary.push_phase(name.clone(), wall_ns, counters);
        }
    }
    summary.compute_totals();

    BatchOutcome { results, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MercedConfig;
    use ppet_netlist::data;

    fn circuits() -> Vec<Circuit> {
        vec![data::s27(), data::counter(6), Circuit::new("void")]
    }

    fn merced() -> Merced {
        Merced::new(MercedConfig::default().with_cbit_length(4))
    }

    /// Zeroes the wall-clock fields, which legitimately vary run to run;
    /// everything else in a report is deterministic.
    fn strip_wall(result: &Result<PpetReport, MercedError>) -> Result<PpetReport, MercedError> {
        result.clone().map(|mut r| {
            r.elapsed = std::time::Duration::ZERO;
            for p in &mut r.phases {
                p.wall_ns = 0;
            }
            r
        })
    }

    #[test]
    fn batch_matches_individual_compiles_at_any_worker_count() {
        let cs = circuits();
        let m = merced();
        let individual: Vec<_> = cs.iter().map(|c| m.compile(c)).collect();
        for workers in [1, 2, 8] {
            let batch = compile_batch(&m, &cs, &Pool::new(workers));
            assert_eq!(batch.results.len(), cs.len());
            for ((name, got), (circuit, want)) in
                batch.results.iter().zip(cs.iter().zip(&individual))
            {
                assert_eq!(name, circuit.name());
                assert_eq!(
                    strip_wall(got),
                    strip_wall(want),
                    "workers = {workers}, circuit = {name}"
                );
            }
        }
    }

    #[test]
    fn summary_merges_counters_in_job_order() {
        let cs = circuits();
        let m = merced();
        let batch = compile_batch(&m, &cs, &Pool::new(4));
        assert_eq!(batch.succeeded(), 2);
        assert_eq!(batch.failed(), 1);
        assert_eq!(batch.summary.phases.len(), 2);
        assert_eq!(batch.summary.phases[0].name, "s27");

        // The batch totals are the sums of the per-job totals.
        let manifests = batch.manifests();
        assert_eq!(manifests.len(), 2);
        let want: u64 = manifests
            .iter()
            .map(|mf| mf.total("flow.trees_built").unwrap())
            .sum();
        assert_eq!(batch.summary.total("flow.trees_built"), Some(want));
        assert!(batch
            .summary
            .config
            .contains(&("failures".to_owned(), "1".to_owned())));
    }

    #[test]
    fn summary_counters_are_worker_count_invariant() {
        let cs = circuits();
        let m = merced();
        // Only wall-clock fields and the recorded worker count may differ
        // between worker counts; every deterministic field must match.
        let strip_resource_fields = |outcome: &BatchOutcome| {
            let mut s = outcome.summary.clone();
            for p in &mut s.phases {
                p.wall_ns = 0;
            }
            s.config.retain(|(k, _)| k != "jobs");
            s
        };
        let baseline = compile_batch(&m, &cs, &Pool::sequential());
        for workers in [2, 8] {
            let batch = compile_batch(&m, &cs, &Pool::new(workers));
            assert_eq!(
                strip_resource_fields(&batch),
                strip_resource_fields(&baseline)
            );
        }
    }

    #[test]
    fn table_reports_successes_and_failures() {
        let batch = compile_batch(&merced(), &circuits(), &Pool::new(2));
        let table = batch.table();
        assert!(table.contains("s27"));
        assert!(table.contains("void: FAILED"));
        assert!(table.starts_with(&PpetReport::table10_header()));
    }
}
