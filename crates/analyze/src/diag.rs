//! The diagnostic vocabulary: stable codes, severities, locations, and the
//! typed error the engine raises when error-level diagnostics are present.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;

/// Stable diagnostic codes. The number never changes meaning once shipped;
/// renderers, fixtures, and suppression comments key off these strings.
///
/// * `M1xx` — workflow structure and profiles,
/// * `M2xx` — placement plans,
/// * `M3xx` — environment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Workflow has no phases, or a phase has no tasks.
    EmptyStructure,
    /// A dependency points to the same or a later phase (cycle risk).
    NotEarlierPhase,
    /// A dependency references a task that does not exist.
    DanglingReference,
    /// A task beyond phase 0 has no dependencies anchoring it.
    OrphanTask,
    /// A task declares zero components.
    ZeroComponents,
    /// A task profile field is negative, NaN, or out of range.
    BadProfile,
    /// Two tasks share a name.
    DuplicateTaskName,
    /// A dependency pattern is incompatible with the component counts.
    PatternMismatch,
    /// A task reads input bytes no producer (or initial dataset) provides.
    MissingConsumerData,
    /// A very wide phase (or workflow) lacks batching-friendly structure:
    /// its tasks carry distinct code identities, so schedulers and warm
    /// pools cannot group them.
    ScaleStructure,
    /// A fusable chain of short tasks whose inter-task transfer cost
    /// exceeds its compute: placed serverless, the pair would spend more
    /// time moving its intermediate through storage than computing.
    FusionProfitable,
    /// The plan leaves a task without a platform assignment.
    UnassignedTask,
    /// A FaaS-placed task cannot fit the timeout window even with
    /// checkpoint-margin chaining.
    FaasWindowInfeasible,
    /// A FaaS-placed task needs more memory than the function cap.
    FaasMemoryExceeded,
    /// The hybrid boundary stages an excessive data volume over the WAN.
    BoundaryStaging,
    /// A price, capacity, or bandwidth knob is non-positive or NaN.
    NonPositiveConfig,
    /// The checkpoint margin is negative or consumes the whole FaaS window.
    MarginExceedsTimeout,
    /// Requested concurrency is beyond the ramp model's validity.
    RampConcurrency,
}

impl Code {
    /// Every code, in numeric order (fixture tests assert full coverage).
    pub const ALL: [Code; 18] = [
        Code::EmptyStructure,
        Code::NotEarlierPhase,
        Code::DanglingReference,
        Code::OrphanTask,
        Code::ZeroComponents,
        Code::BadProfile,
        Code::DuplicateTaskName,
        Code::PatternMismatch,
        Code::MissingConsumerData,
        Code::ScaleStructure,
        Code::FusionProfitable,
        Code::UnassignedTask,
        Code::FaasWindowInfeasible,
        Code::FaasMemoryExceeded,
        Code::BoundaryStaging,
        Code::NonPositiveConfig,
        Code::MarginExceedsTimeout,
        Code::RampConcurrency,
    ];

    /// The stable string form (`"M105"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::EmptyStructure => "M100",
            Code::NotEarlierPhase => "M101",
            Code::DanglingReference => "M102",
            Code::OrphanTask => "M103",
            Code::ZeroComponents => "M104",
            Code::BadProfile => "M105",
            Code::DuplicateTaskName => "M106",
            Code::PatternMismatch => "M107",
            Code::MissingConsumerData => "M108",
            Code::ScaleStructure => "M109",
            Code::FusionProfitable => "M110",
            Code::UnassignedTask => "M201",
            Code::FaasWindowInfeasible => "M202",
            Code::FaasMemoryExceeded => "M203",
            Code::BoundaryStaging => "M204",
            Code::NonPositiveConfig => "M301",
            Code::MarginExceedsTimeout => "M302",
            Code::RampConcurrency => "M303",
        }
    }

    /// The canonical severity of the code. `M108`/`M109`/`M110`/`M204` are
    /// advisory (the run still completes, just suspiciously); everything
    /// else stops the simulation before it starts. `M303` is an error in
    /// its nothing-can-start form and downgraded to a warning by the checks
    /// for the ramp-past-keep-alive form.
    pub fn severity(self) -> Severity {
        match self {
            Code::MissingConsumerData
            | Code::ScaleStructure
            | Code::FusionProfitable
            | Code::BoundaryStaging => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    /// Serialized as the stable string form (`"M105"`).
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for Code {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let s = v
            .as_str()
            .ok_or_else(|| SerdeError::expected("diagnostic code string", v))?;
        Code::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| SerdeError::custom(format!("unknown diagnostic code '{s}'")))
    }
}

/// How bad a diagnostic is. Serialized lowercase (`"warning"`/`"error"`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Severity {
    /// Suspicious but runnable; the engine proceeds.
    #[serde(rename = "warning")]
    Warning,
    /// The input would panic or mislead mid-simulation; the engine refuses
    /// to run.
    #[default]
    #[serde(rename = "error")]
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Where in the input a diagnostic points. Serialized as an internally
/// tagged object, e.g. `{"kind": "task", "phase": 0, "task": 1, "name":
/// "Align"}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind")]
pub enum Location {
    /// The workflow as a whole.
    #[serde(rename = "workflow")]
    Workflow,
    /// A specific phase.
    #[serde(rename = "phase")]
    Phase {
        /// Phase index.
        phase: usize,
    },
    /// A specific task.
    #[serde(rename = "task")]
    Task {
        /// Phase index.
        phase: usize,
        /// Task index within the phase.
        task: usize,
        /// Task name.
        name: String,
    },
    /// The placement plan as a whole.
    #[serde(rename = "plan")]
    Plan,
    /// A configuration field.
    #[serde(rename = "config")]
    Config {
        /// Dotted field path, e.g. `"faas.timeout_secs"`.
        field: String,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Workflow => f.write_str("workflow"),
            Location::Phase { phase } => write!(f, "phase {phase}"),
            Location::Task { phase, task, name } => {
                write!(f, "task '{name}' (P{phase}T{task})")
            }
            Location::Plan => f.write_str("plan"),
            Location::Config { field } => write!(f, "config field `{field}`"),
        }
    }
}

/// One finding of the analyzer. Serialized as an object; `help` is omitted
/// when absent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code (see [`Code`]).
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional remediation hint.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic at the code's canonical severity.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
            help: None,
        }
    }

    /// A warning-severity diagnostic (for codes whose canonical severity is
    /// error but that have an advisory form, e.g. `M303`).
    pub fn warning(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(code, location, message)
        }
    }

    /// Attaches a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    /// One `severity[code]: location: message` line (the help hint is
    /// rendered separately by the pretty renderer).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// The typed refusal raised when error-level diagnostics are present:
/// carries every finding (errors *and* warnings) so callers can render the
/// full picture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// All diagnostics of the refused analysis, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisError {
    /// The error-level subset.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.errors().count();
        writeln!(
            f,
            "analysis refused the input: {errors} error(s), {} warning(s)",
            self.diagnostics.len() - errors
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalysisError {}

/// True when any diagnostic is error-level.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Splits a finding list into "runnable" (`Ok`: warnings only, possibly
/// empty) and "refused" (`Err`: at least one error).
pub fn into_result(diags: Vec<Diagnostic>) -> Result<Vec<Diagnostic>, AnalysisError> {
    if has_errors(&diags) {
        Err(AnalysisError { diagnostics: diags })
    } else {
        Ok(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_as_stable_strings() {
        for code in Code::ALL {
            let json = serde_json::to_string(&code).expect("serialize");
            assert_eq!(json, format!("\"{}\"", code.as_str()));
            let back: Code = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, code);
        }
    }

    #[test]
    fn all_is_exhaustive_and_ordered() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(strs, sorted, "Code::ALL must be unique and ordered");
        assert_eq!(strs.len(), 18);
    }

    #[test]
    fn display_lines_read_well() {
        let d = Diagnostic::new(
            Code::BadProfile,
            Location::Task {
                phase: 0,
                task: 1,
                name: "Align".into(),
            },
            "compute_secs_vm is NaN",
        );
        assert_eq!(
            d.to_string(),
            "error[M105]: task 'Align' (P0T1): compute_secs_vm is NaN"
        );
        let w = Diagnostic::warning(
            Code::RampConcurrency,
            Location::Config {
                field: "faas.ramp_per_sec".into(),
            },
            "slow ramp",
        );
        assert_eq!(
            w.to_string(),
            "warning[M303]: config field `faas.ramp_per_sec`: slow ramp"
        );
    }

    #[test]
    fn into_result_partitions_on_errors() {
        let warn = Diagnostic::warning(Code::BoundaryStaging, Location::Plan, "w");
        assert_eq!(into_result(vec![warn.clone()]), Ok(vec![warn.clone()]));
        let err = Diagnostic::new(Code::UnassignedTask, Location::Plan, "e");
        let refused = into_result(vec![warn, err]).unwrap_err();
        assert_eq!(refused.errors().count(), 1);
        assert!(refused.to_string().contains("1 error(s), 1 warning(s)"));
    }
}
