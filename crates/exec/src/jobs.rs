//! Worker-count resolution: `--jobs` flags, the `PPET_JOBS` environment
//! variable, and the hardware ceiling.

use std::fmt;

/// The environment variable consulted when no explicit job count is given.
/// Accepts a positive integer or the keyword `max` (= all available cores).
pub const JOBS_ENV: &str = "PPET_JOBS";

/// A rejected job-count request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobsError {
    /// `0` was requested; a pool needs at least one worker.
    Zero,
    /// The value could not be parsed as a positive integer or `max`.
    Unparsable {
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for JobsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Zero => write!(f, "jobs must be at least 1 (got 0)"),
            Self::Unparsable { text } => {
                write!(f, "jobs expects a positive integer or `max`, got `{text}`")
            }
        }
    }
}

impl std::error::Error for JobsError {}

/// The number of hardware execution units available to this process
/// (`std::thread::available_parallelism`, or 1 when it cannot be queried).
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a job-count string: a positive integer, or `max` for
/// [`available_workers`].
///
/// # Errors
///
/// [`JobsError::Zero`] for `0`, [`JobsError::Unparsable`] otherwise.
pub fn parse_jobs(text: &str) -> Result<usize, JobsError> {
    let trimmed = text.trim();
    if trimmed.eq_ignore_ascii_case("max") {
        return Ok(available_workers());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(JobsError::Zero),
        Ok(n) => Ok(n),
        Err(_) => Err(JobsError::Unparsable {
            text: text.to_owned(),
        }),
    }
}

/// Resolves the effective worker count for a command-line tool:
///
/// 1. an explicit request (e.g. `--jobs N`) wins;
/// 2. otherwise the [`JOBS_ENV`] environment variable (`N` or `max`);
/// 3. otherwise 1 (sequential — the conservative default, since results
///    are identical at every worker count anyway).
///
/// The result is capped at [`available_workers`]: oversubscribing cores
/// never helps these CPU-bound workloads, and the determinism contract
/// means capping cannot change any result.
///
/// # Errors
///
/// Propagates [`JobsError`] from the explicit request or the environment.
pub fn resolve_jobs(requested: Option<usize>) -> Result<usize, JobsError> {
    let uncapped = match requested {
        Some(0) => return Err(JobsError::Zero),
        Some(n) => n,
        None => match std::env::var(JOBS_ENV) {
            Ok(text) => parse_jobs(&text)?,
            Err(_) => 1,
        },
    };
    Ok(uncapped.min(available_workers()).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_numbers_and_max() {
        assert_eq!(parse_jobs("3"), Ok(3));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
        assert_eq!(parse_jobs("max"), Ok(available_workers()));
        assert_eq!(parse_jobs("MAX"), Ok(available_workers()));
        assert_eq!(parse_jobs(" max "), Ok(available_workers()));
    }

    #[test]
    fn parse_rejects_zero_and_garbage() {
        assert_eq!(parse_jobs("0"), Err(JobsError::Zero));
        assert!(matches!(
            parse_jobs("many"),
            Err(JobsError::Unparsable { .. })
        ));
        assert!(matches!(
            parse_jobs("-2"),
            Err(JobsError::Unparsable { .. })
        ));
        assert!(parse_jobs("two").unwrap_err().to_string().contains("two"));
    }

    #[test]
    fn explicit_request_wins_and_is_capped() {
        assert_eq!(resolve_jobs(Some(1)), Ok(1));
        let capped = resolve_jobs(Some(usize::MAX)).unwrap();
        assert_eq!(capped, available_workers());
        assert_eq!(resolve_jobs(Some(0)), Err(JobsError::Zero));
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}
