//! Loading and saving problem instances and assignments.
//!
//! Downstream systems rarely build [`Problem`] values in code: applicants fill
//! in forms, positions come from a catalogue. This module provides a small,
//! dependency-free interchange format:
//!
//! * **JSON** for whole problem instances ([`save_problem_json`] /
//!   [`load_problem_json`]) — functions with weights, priorities and
//!   capacities; objects with attribute vectors and capacities;
//! * **CSV** for assignment results ([`write_assignment_csv`]) — one row per
//!   matched pair, convenient for spreadsheets and grading scripts.

#![expect(
    clippy::disallowed_types,
    reason = "JSON/CSV import and export is user-facing file I/O, not durable state"
)]

use crate::{Assignment, ObjectRecord, PreferenceFunction, Problem};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Serializable form of a preference function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Identifier of the user / query.
    pub id: usize,
    /// Raw (not necessarily normalized) attribute weights.
    pub weights: Vec<f64>,
    /// Priority γ; defaults to 1.
    #[serde(default = "default_priority")]
    pub priority: f64,
    /// Capacity; defaults to 1.
    #[serde(default = "default_capacity")]
    pub capacity: u32,
}

/// Serializable form of an object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectSpec {
    /// Identifier of the object.
    pub id: u64,
    /// Attribute values in `[0, 1]`, larger is better.
    pub attributes: Vec<f64>,
    /// Capacity; defaults to 1.
    #[serde(default = "default_capacity")]
    pub capacity: u32,
}

/// Serializable form of a whole problem instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// The preference functions (users).
    pub functions: Vec<FunctionSpec>,
    /// The objects.
    pub objects: Vec<ObjectSpec>,
}

fn default_priority() -> f64 {
    1.0
}
fn default_capacity() -> u32 {
    1
}

/// Errors raised while loading or saving instances.
#[derive(Debug)]
pub enum IoFormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The JSON could not be parsed.
    Json(serde_json::Error),
    /// The decoded data does not form a valid problem.
    Invalid(String),
}

impl std::fmt::Display for IoFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFormatError::Io(e) => write!(f, "io error: {e}"),
            IoFormatError::Json(e) => write!(f, "json error: {e}"),
            IoFormatError::Invalid(msg) => write!(f, "invalid problem: {msg}"),
        }
    }
}

impl std::error::Error for IoFormatError {}

impl From<std::io::Error> for IoFormatError {
    fn from(e: std::io::Error) -> Self {
        IoFormatError::Io(e)
    }
}
impl From<serde_json::Error> for IoFormatError {
    fn from(e: serde_json::Error) -> Self {
        IoFormatError::Json(e)
    }
}

impl ProblemSpec {
    /// Converts a problem into its serializable form.
    pub fn from_problem(problem: &Problem) -> Self {
        Self {
            functions: problem
                .functions()
                .iter()
                .map(|f| FunctionSpec {
                    id: f.id.0,
                    weights: f.function.weights().to_vec(),
                    priority: f.function.priority(),
                    capacity: f.capacity,
                })
                .collect(),
            objects: problem
                .objects()
                .iter()
                .map(|o| ObjectSpec {
                    id: o.id.0,
                    attributes: o.point.coords().to_vec(),
                    capacity: o.capacity,
                })
                .collect(),
        }
    }

    /// Validates the spec and builds a [`Problem`]; what [`Problem::new`]
    /// refuses (a capacity of 0, say) is an [`IoFormatError::Invalid`].
    pub fn into_problem(self) -> Result<Problem, IoFormatError> {
        let functions = self
            .functions
            .into_iter()
            .map(|f| {
                let lf = LinearFunction::with_priority(f.weights, f.priority)
                    .map_err(|e| IoFormatError::Invalid(format!("function {}: {e}", f.id)))?;
                Ok(PreferenceFunction {
                    id: crate::FunctionId(f.id),
                    function: lf,
                    capacity: f.capacity,
                })
            })
            .collect::<Result<Vec<_>, IoFormatError>>()?;
        let objects = self
            .objects
            .into_iter()
            .map(|o| {
                let point = Point::new(o.attributes)
                    .map_err(|e| IoFormatError::Invalid(format!("object {}: {e}", o.id)))?;
                Ok(ObjectRecord {
                    id: RecordId(o.id),
                    point,
                    capacity: o.capacity,
                })
            })
            .collect::<Result<Vec<_>, IoFormatError>>()?;
        Problem::new(functions, objects).map_err(|e| IoFormatError::Invalid(e.to_string()))
    }
}

/// Serializes a problem as pretty-printed JSON into any writer.
pub fn write_problem_json<W: Write>(problem: &Problem, writer: W) -> Result<(), IoFormatError> {
    serde_json::to_writer_pretty(writer, &ProblemSpec::from_problem(problem))?;
    Ok(())
}

/// Reads a problem from JSON.
pub fn read_problem_json<R: Read>(reader: R) -> Result<Problem, IoFormatError> {
    let spec: ProblemSpec = serde_json::from_reader(reader)?;
    spec.into_problem()
}

/// Saves a problem to a JSON file.
pub fn save_problem_json(problem: &Problem, path: &Path) -> Result<(), IoFormatError> {
    let file = std::fs::File::create(path)?;
    write_problem_json(problem, std::io::BufWriter::new(file))
}

/// Loads a problem from a JSON file.
pub fn load_problem_json(path: &Path) -> Result<Problem, IoFormatError> {
    let file = std::fs::File::open(path)?;
    read_problem_json(BufReader::new(file))
}

/// Writes an assignment as CSV: `function_id,object_id,score`, one pair per
/// line, preceded by a header.
pub fn write_assignment_csv<W: Write>(
    assignment: &Assignment,
    mut writer: W,
) -> Result<(), IoFormatError> {
    writeln!(writer, "function_id,object_id,score")?;
    for pair in assignment.pairs() {
        writeln!(
            writer,
            "{},{},{}",
            pair.function.0, pair.object.0, pair.score
        )?;
    }
    Ok(())
}

/// Reads an assignment previously written by [`write_assignment_csv`].
///
/// The reader is strict: every data row must have exactly the three fields
/// `function_id,object_id,score` (rows with extra columns are rejected rather
/// than silently truncated), and line 1 is only skipped when it actually *is*
/// the header — a headerless file whose first line is data parses fully.
pub fn read_assignment_csv<R: Read>(reader: R) -> Result<Assignment, IoFormatError> {
    let mut assignment = Assignment::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue; // trailing blank
        }
        if lineno == 0 && is_assignment_csv_header(&line) {
            continue;
        }
        let mut parts = line.split(',');
        let err = || IoFormatError::Invalid(format!("malformed CSV line {}", lineno + 1));
        let function: usize = parts
            .next()
            .ok_or_else(err)?
            .trim()
            .parse()
            .map_err(|_| err())?;
        let object: u64 = parts
            .next()
            .ok_or_else(err)?
            .trim()
            .parse()
            .map_err(|_| err())?;
        let score: f64 = parts
            .next()
            .ok_or_else(err)?
            .trim()
            .parse()
            .map_err(|_| err())?;
        if parts.next().is_some() {
            return Err(IoFormatError::Invalid(format!(
                "CSV line {} has more than 3 fields",
                lineno + 1
            )));
        }
        assignment.push(crate::FunctionId(function), RecordId(object), score);
    }
    Ok(assignment)
}

/// `true` iff the line is the `function_id,object_id,score` header written by
/// [`write_assignment_csv`] (fields compared after trimming).
fn is_assignment_csv_header(line: &str) -> bool {
    let mut fields = line.split(',').map(str::trim);
    fields.next() == Some("function_id")
        && fields.next() == Some("object_id")
        && fields.next() == Some("score")
        && fields.next().is_none()
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the file round trip creates and removes a scratch file"
)]
mod tests {
    use super::*;
    use crate::{solve, verify_stable};
    use pref_datagen::{independent_objects, random_priorities, uniform_weight_functions};

    fn sample_problem() -> Problem {
        let base = uniform_weight_functions(12, 3, 5);
        let prioritized = random_priorities(&base, 3, 6);
        let functions: Vec<PreferenceFunction> = prioritized
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(1 + (i as u32 % 2)))
            .collect();
        let objects: Vec<ObjectRecord> = independent_objects(40, 3, 7)
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1,
            })
            .collect();
        Problem::new(functions, objects).unwrap()
    }

    #[test]
    fn json_round_trip_preserves_the_problem() {
        let problem = sample_problem();
        let mut buffer = Vec::new();
        write_problem_json(&problem, &mut buffer).unwrap();
        let loaded = read_problem_json(buffer.as_slice()).unwrap();
        assert_eq!(loaded.num_functions(), problem.num_functions());
        assert_eq!(loaded.num_objects(), problem.num_objects());
        for (a, b) in problem.functions().iter().zip(loaded.functions()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.capacity, b.capacity);
            assert!((a.function.priority() - b.function.priority()).abs() < 1e-12);
            for (wa, wb) in a.function.weights().iter().zip(b.function.weights()) {
                assert!((wa - wb).abs() < 1e-12);
            }
        }
        // and both solve to the same matching
        assert_eq!(solve(&problem).canonical(), solve(&loaded).canonical());
    }

    #[test]
    fn json_defaults_apply_when_fields_are_missing() {
        let json = r#"{
            "functions": [
                {"id": 0, "weights": [3.0, 1.0]},
                {"id": 1, "weights": [1.0, 1.0], "priority": 2.0, "capacity": 3}
            ],
            "objects": [
                {"id": 0, "attributes": [0.9, 0.4]},
                {"id": 1, "attributes": [0.2, 0.8], "capacity": 2}
            ]
        }"#;
        let problem = read_problem_json(json.as_bytes()).unwrap();
        assert_eq!(problem.functions()[0].capacity, 1);
        assert_eq!(problem.functions()[0].function.priority(), 1.0);
        assert_eq!(problem.functions()[0].function.weights(), &[0.75, 0.25]);
        assert_eq!(problem.functions()[1].capacity, 3);
        assert_eq!(problem.objects()[1].capacity, 2);
        let assignment = solve(&problem);
        verify_stable(&problem, &assignment).unwrap();
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        let bad_weights = r#"{"functions":[{"id":0,"weights":[0.0,0.0]}],
                              "objects":[{"id":0,"attributes":[0.5,0.5]}]}"#;
        let err = read_problem_json(bad_weights.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("function 0"));
        let bad_point = r#"{"functions":[{"id":0,"weights":[1.0,1.0]}],
                            "objects":[{"id":3,"attributes":[]}]}"#;
        let err = read_problem_json(bad_point.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("object 3"));
        let mismatched = r#"{"functions":[{"id":0,"weights":[1.0,1.0]}],
                             "objects":[{"id":0,"attributes":[0.5,0.5,0.5]}]}"#;
        let err = read_problem_json(mismatched.as_bytes()).unwrap_err();
        assert!(matches!(err, IoFormatError::Invalid(_)));
        let not_json = read_problem_json("not json".as_bytes()).unwrap_err();
        assert!(matches!(not_json, IoFormatError::Json(_)));
    }

    #[test]
    fn zero_capacities_are_refused_not_rewritten() {
        // a capacity of 0 used to be loaded as 1
        let zero = r#"{"functions":[{"id":4,"weights":[1.0,1.0]}],
                       "objects":[{"id":9,"attributes":[0.5,0.5],"capacity":0}]}"#;
        let err = read_problem_json(zero.as_bytes()).unwrap_err();
        assert!(matches!(err, IoFormatError::Invalid(_)), "{err:?}");
        assert!(
            err.to_string().contains("object r9 has capacity 0"),
            "{err}"
        );
    }

    #[test]
    fn file_round_trip() {
        let problem = sample_problem();
        let dir = std::env::temp_dir().join("fair-assignment-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("problem.json");
        save_problem_json(&problem, &path).unwrap();
        let loaded = load_problem_json(&path).unwrap();
        assert_eq!(loaded.num_objects(), problem.num_objects());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn assignment_csv_round_trip() {
        let problem = sample_problem();
        let assignment = solve(&problem);
        let mut buffer = Vec::new();
        write_assignment_csv(&assignment, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(text.starts_with("function_id,object_id,score\n"));
        assert_eq!(text.lines().count(), assignment.len() + 1);
        let loaded = read_assignment_csv(buffer.as_slice()).unwrap();
        assert_eq!(loaded.canonical(), assignment.canonical());
        verify_stable(&problem, &loaded).unwrap();
    }

    #[test]
    fn malformed_csv_is_rejected() {
        let bad = "function_id,object_id,score\n1,notanumber,0.5\n";
        assert!(read_assignment_csv(bad.as_bytes()).is_err());
        let short = "function_id,object_id,score\n1\n";
        assert!(read_assignment_csv(short.as_bytes()).is_err());
        // blank trailing lines are fine
        let ok = "function_id,object_id,score\n1,2,0.5\n\n";
        assert_eq!(read_assignment_csv(ok.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn extra_columns_are_rejected() {
        let extra = "function_id,object_id,score\n1,2,0.5,surprise\n";
        let err = read_assignment_csv(extra.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("more than 3 fields"), "{err}");
        // a trailing comma is an (empty) fourth field too
        let trailing = "function_id,object_id,score\n1,2,0.5,\n";
        assert!(read_assignment_csv(trailing.as_bytes()).is_err());
    }

    #[test]
    fn headerless_first_line_is_parsed_as_data() {
        // line 1 is data, not the header: it must not be silently skipped
        let headerless = "3,7,0.25\n1,2,0.5\n";
        let a = read_assignment_csv(headerless.as_bytes()).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.pairs()[0].function.0, 3);
        assert_eq!(a.pairs()[0].object.0, 7);
        // a malformed non-header first line is an error, not a skipped header
        let bad_first = "not,a,header\n1,2,0.5\n";
        assert!(read_assignment_csv(bad_first.as_bytes()).is_err());
        // header with surrounding spaces still counts as the header
        let spaced = " function_id , object_id , score \n1,2,0.5\n";
        assert_eq!(read_assignment_csv(spaced.as_bytes()).unwrap().len(), 1);
    }
}
