//! Environment-variable reads shared by `PipelineConfig::from_env` and the
//! fault-stall budget (`QAOA_GNN_STALL_MS`), so each reader spells only its
//! keys and where the value goes.

use std::path::PathBuf;
use std::str::FromStr;

/// The trimmed value of `key` parsed as `T`; `None` when the variable is
/// unset, not Unicode, or unparsable (a typo leaves the default in place).
pub(crate) fn num<T: FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// `true` when `key` is set, non-empty and not `"0"`.
pub(crate) fn flag(key: &str) -> bool {
    matches!(std::env::var(key), Ok(v) if !v.is_empty() && v != "0")
}

/// The trimmed value of `key` as a path; `None` when unset or blank.
pub(crate) fn path(key: &str) -> Option<PathBuf> {
    let value = std::env::var(key).ok()?;
    let value = value.trim();
    (!value.is_empty()).then(|| PathBuf::from(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test owns its keys, so no test reads a variable another sets.

    #[test]
    fn num_trims_and_ignores_unparsable_values() {
        std::env::set_var("QAOA_GNN_TEST_ENV_NUM_TRIM", "  42\n");
        assert_eq!(num::<usize>("QAOA_GNN_TEST_ENV_NUM_TRIM"), Some(42));
        assert_eq!(num::<f64>("QAOA_GNN_TEST_ENV_NUM_TRIM"), Some(42.0));
        std::env::set_var("QAOA_GNN_TEST_ENV_NUM_BAD", "4x2");
        assert_eq!(num::<u64>("QAOA_GNN_TEST_ENV_NUM_BAD"), None);
        std::env::set_var("QAOA_GNN_TEST_ENV_NUM_NEG", "-3");
        assert_eq!(num::<usize>("QAOA_GNN_TEST_ENV_NUM_NEG"), None);
        assert_eq!(num::<f64>("QAOA_GNN_TEST_ENV_NUM_NEG"), Some(-3.0));
        assert_eq!(num::<u64>("QAOA_GNN_TEST_ENV_NUM_UNSET"), None);
    }

    #[test]
    fn flag_is_set_non_empty_and_not_zero() {
        assert!(!flag("QAOA_GNN_TEST_ENV_FLAG_UNSET"));
        for (value, expected) in [
            ("", false),
            ("0", false),
            ("1", true),
            ("yes", true),
            (" 0", true),
        ] {
            std::env::set_var("QAOA_GNN_TEST_ENV_FLAG", value);
            assert_eq!(flag("QAOA_GNN_TEST_ENV_FLAG"), expected, "{value:?}");
        }
    }

    #[test]
    fn path_is_trimmed_and_blank_is_unset() {
        std::env::set_var("QAOA_GNN_TEST_ENV_PATH", "  runs/ckpt \n");
        assert_eq!(
            path("QAOA_GNN_TEST_ENV_PATH"),
            Some(PathBuf::from("runs/ckpt"))
        );
        std::env::set_var("QAOA_GNN_TEST_ENV_PATH_BLANK", "   ");
        assert_eq!(path("QAOA_GNN_TEST_ENV_PATH_BLANK"), None);
        assert_eq!(path("QAOA_GNN_TEST_ENV_PATH_UNSET"), None);
    }
}
