//! Problem and allocation (de)serialization.
//!
//! Workloads are plain data; being able to save them, diff them, and reload
//! them is what makes experiments repeatable. Everything in this crate
//! derives Serde, and this module adds JSON convenience wrappers plus a
//! versioned container so files remain identifiable as they evolve.
//!
//! Format 2 stores a problem's primary data only: nodes, links, flows,
//! classes and the optional reliability spec. Loading rebuilds the derived
//! indexes through [`crate::ProblemBuilder::build`], so a file that
//! violates a builder invariant (a class on an unknown node, a negative
//! capacity, …) is rejected with [`IoError::Invalid`]. Format 1 also
//! stored the indexes and trusted them on load; it is no longer read.

use crate::allocation::Allocation;
use crate::problem::{Problem, ProblemBuilder, ValidationError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Format version written into every file; bumped on breaking schema
/// changes.
pub const FORMAT_VERSION: u32 = 2;

/// A versioned, self-describing container for a problem (and optionally a
/// solved allocation).
///
/// Read one with [`Self::from_json`] or [`Self::load`], which check the
/// version and validate the problem.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProblemFile {
    /// Schema version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Free-form description of the workload.
    pub description: String,
    /// The problem itself.
    pub problem: Problem,
    /// A solved allocation, if one is bundled.
    pub allocation: Option<Allocation>,
}

/// A [`ProblemFile`] as read, before its problem is validated: the one
/// type a problem file deserializes into.
#[derive(Deserialize)]
struct RawProblemFile {
    version: u32,
    description: String,
    problem: ProblemBuilder,
    allocation: Option<Allocation>,
}

/// Error type for problem-file I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// JSON (de)serialization error.
    Json(serde_json::Error),
    /// The file's schema version is not supported.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file parsed, but its problem fails validation.
    Invalid(ValidationError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported problem-file version {found} (supported: {supported})")
            }
            IoError::Invalid(e) => write!(f, "invalid problem: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Json(e) => Some(e),
            IoError::UnsupportedVersion { .. } => None,
            IoError::Invalid(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

impl ProblemFile {
    /// Wraps a problem for saving.
    pub fn new(description: impl Into<String>, problem: Problem) -> Self {
        Self { version: FORMAT_VERSION, description: description.into(), problem, allocation: None }
    }

    /// Attaches a solved allocation.
    pub fn with_allocation(mut self, allocation: Allocation) -> Self {
        self.allocation = Some(allocation);
        self
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Json`] if serialization fails (practically
    /// impossible for these types).
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn to_json(&self) -> Result<String, IoError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserializes from JSON, checking the schema version, then builds
    /// the problem through [`ProblemBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`IoError::Json`] on malformed input, [`IoError::UnsupportedVersion`]
    /// on a version mismatch, [`IoError::Invalid`] when the problem fails
    /// validation.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn from_json(text: &str) -> Result<Self, IoError> {
        let raw: RawProblemFile = serde_json::from_str(text)?;
        if raw.version != FORMAT_VERSION {
            return Err(IoError::UnsupportedVersion {
                found: raw.version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(ProblemFile {
            version: raw.version,
            description: raw.description,
            problem: raw.problem.build().map_err(IoError::Invalid)?,
            allocation: raw.allocation,
        })
    }

    /// Writes pretty JSON to `path`.
    ///
    /// # Errors
    ///
    /// [`IoError::Io`] on filesystem failure, [`IoError::Json`] on
    /// serialization failure.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn save(&self, path: &Path) -> Result<(), IoError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads from `path`.
    ///
    /// # Errors
    ///
    /// [`IoError::Io`] on filesystem failure, plus the [`Self::from_json`]
    /// conditions.
    #[must_use = "this Result reports a failure the caller must handle"]
    pub fn load(path: &Path) -> Result<Self, IoError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::utility::Utility;
    use crate::workloads::base_workload;
    use serde::Serialize;

    #[test]
    fn json_round_trip_preserves_problem() {
        let p = base_workload();
        let file = ProblemFile::new("paper table 1", p.clone());
        let json = file.to_json().unwrap();
        let back = ProblemFile::from_json(&json).unwrap();
        assert_eq!(back.problem, p);
        assert_eq!(back.description, "paper table 1");
        assert_eq!(back.allocation, None);
    }

    #[test]
    fn round_trip_with_allocation() {
        let p = base_workload();
        let a = Allocation::upper_bounds(&p);
        let file = ProblemFile::new("solved", p).with_allocation(a.clone());
        let back = ProblemFile::from_json(&file.to_json().unwrap()).unwrap();
        assert_eq!(back.allocation, Some(a));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("lrgp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        let file = ProblemFile::new("disk", base_workload());
        file.save(&path).unwrap();
        let back = ProblemFile::load(&path).unwrap();
        assert_eq!(back, file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut file = ProblemFile::new("x", base_workload());
        file.version = 999;
        let json = serde_json::to_string(&file).unwrap();
        let err = ProblemFile::from_json(&json).unwrap_err();
        assert!(matches!(err, IoError::UnsupportedVersion { found: 999, .. }));
        assert!(err.to_string().contains("999"));
    }

    /// `base_workload` saved as a file, with `edit` applied to the problem's
    /// JSON object.
    fn edited_file(edit: impl Fn(&mut Vec<(String, serde::Value)>)) -> String {
        let file = ProblemFile::new("edited", base_workload());
        let mut value = serde::Serialize::to_value(&file);
        let serde::Value::Object(fields) = &mut value else { unreachable!() };
        let (_, serde::Value::Object(problem)) =
            fields.iter_mut().find(|(k, _)| k == "problem").unwrap()
        else {
            unreachable!()
        };
        edit(problem);
        serde_json::to_string(&value).unwrap()
    }

    /// The mutable array stored under `key`.
    fn array<'a>(obj: &'a mut [(String, serde::Value)], key: &str) -> &'a mut Vec<serde::Value> {
        match obj.iter_mut().find(|(k, _)| k == key) {
            Some((_, serde::Value::Array(items))) => items,
            _ => panic!("no array {key}"),
        }
    }

    /// Sets `key` of a JSON object to `v`.
    fn set(obj: &mut serde::Value, key: &str, v: serde::Value) {
        let serde::Value::Object(entries) = obj else { panic!("not an object") };
        entries.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
    }

    #[test]
    fn writes_primary_data_only() {
        let json = ProblemFile::new("x", base_workload()).to_json().unwrap();
        for index in ["classes_of_flow", "classes_at_node", "flows_at_node", "flows_on_link"] {
            assert!(!json.contains(index), "{index} is derived, not stored");
        }
        assert!(json.contains("\"version\": 2"));
    }

    #[test]
    fn class_on_unknown_node_is_rejected() {
        let json = edited_file(|problem| {
            set(&mut array(problem, "classes")[0], "node", serde::Value::U64(999));
        });
        let err = ProblemFile::from_json(&json).unwrap_err();
        assert!(matches!(err, IoError::Invalid(ValidationError::UnknownNode { .. })), "{err}");
        assert!(err.to_string().contains("invalid problem"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn negated_capacities_are_rejected() {
        let json = edited_file(|problem| {
            for key in ["nodes", "links"] {
                for spec in array(problem, key) {
                    let Some(&serde::Value::F64(capacity)) = spec.get("capacity") else {
                        panic!("capacities serialize as f64")
                    };
                    set(spec, "capacity", serde::Value::F64(-capacity));
                }
            }
        });
        let err = ProblemFile::from_json(&json).unwrap_err();
        assert!(
            matches!(err, IoError::Invalid(ValidationError::NonPositiveCapacity { .. })),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_utilities_are_rejected() {
        for utility in [
            Utility::Power { weight: 20.0, exponent: 1.5 },
            Utility::Power { weight: 20.0, exponent: -1.0 },
            Utility::Saturating { weight: 20.0, scale: 0.0 },
            Utility::Log { weight: -20.0 },
        ] {
            let json = edited_file(|problem| {
                set(&mut array(problem, "classes")[0], "utility", utility.to_value());
            });
            let err = ProblemFile::from_json(&json).unwrap_err();
            assert!(
                matches!(err, IoError::Invalid(ValidationError::InvalidUtility { .. })),
                "{utility}: {err}"
            );
        }
        // A weight beyond f64's range is refused by the parser, as
        // serde_json does, rather than read as infinity.
        let json = edited_file(|problem| {
            set(&mut array(problem, "classes")[0], "utility", Utility::log(0.125).to_value());
        })
        .replace("\"weight\":0.125", "\"weight\":1e309");
        let err = ProblemFile::from_json(&json).unwrap_err();
        let refused = matches!(err, IoError::Json(_)) && err.to_string().contains("out of range");
        assert!(refused, "{err}");
    }

    #[test]
    fn negative_zero_cost_round_trips_bit_exact() {
        let json = edited_file(|problem| {
            let flow = &mut array(problem, "flows")[0];
            let serde::Value::Object(entries) = flow else { panic!("flow is an object") };
            let (_, serde::Value::Array(costs)) =
                entries.iter_mut().find(|(k, _)| k == "node_costs").unwrap()
            else {
                panic!("node_costs is an array")
            };
            let serde::Value::Array(pair) = &mut costs[0] else { panic!("a cost is a pair") };
            pair[1] = serde::Value::F64(-0.0);
        });
        let cost = |file: &ProblemFile| file.problem.flow(FlowId::new(0)).node_costs[0].1;
        let first = ProblemFile::from_json(&json).unwrap();
        let again = ProblemFile::from_json(&first.to_json().unwrap()).unwrap();
        assert_eq!(cost(&first).to_bits(), (-0.0f64).to_bits());
        assert_eq!(cost(&again).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn deep_nesting_under_an_unknown_key_is_an_error() {
        // 100,000 levels once overflowed the stack in `lrgp solve`.
        let json = ProblemFile::new("deep", base_workload()).to_json().unwrap();
        let depth = 100_000;
        let deep = format!("{{\"junk\": {}{},{}", "[".repeat(depth), "]".repeat(depth), &json[1..]);
        let err = ProblemFile::from_json(&deep).unwrap_err();
        assert!(matches!(err, IoError::Json(_)) && err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn format_1_files_are_refused() {
        let mut file = ProblemFile::new("x", base_workload());
        file.version = 1;
        let json = serde_json::to_string(&file).unwrap();
        assert!(matches!(
            ProblemFile::from_json(&json).unwrap_err(),
            IoError::UnsupportedVersion { found: 1, supported: 2 }
        ));
    }

    #[test]
    fn malformed_json_rejected() {
        let err = ProblemFile::from_json("{not json").unwrap_err();
        assert!(matches!(err, IoError::Json(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ProblemFile::load(Path::new("/nonexistent/lrgp.json")).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
    }
}
