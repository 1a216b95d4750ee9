//! Aggregated analysis report: model check + vulnerability certificates +
//! (optionally) source lints, rendered as human-readable text or streamed
//! JSON.

use std::fmt::Write as _;

use serde::Serialize;
use serde_json::{JsonStreamWriter, StreamSerialize};

use crate::checks::{check_model, Allowlist, ModelCheck, Violation};
use crate::lints::LintReport;
use crate::vulns::{certify_vulnerabilities, VulnCertificate};

/// Everything the analyzer proved (or failed to prove) in one run.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The exhaustive model check: witnesses, plans, dead rows,
    /// asymmetries, and any violations.
    pub model: ModelCheck,
    /// One reachability certificate per served `(profile, vulnerability,
    /// link)` triple.
    pub certificates: Vec<VulnCertificate>,
    /// Violations raised while certifying (a vulnerability whose trigger
    /// state the model cannot reach).
    pub certificate_violations: Vec<Violation>,
    /// The source lint pass, when `--lints` was requested.
    pub lints: Option<LintReport>,
}

impl AnalysisReport {
    /// Runs the full analysis. `lints` carries the result of
    /// [`crate::lints::run_lints`] when the source pass was requested.
    pub fn run(allowlist: &Allowlist, lints: Option<LintReport>) -> Self {
        let model = check_model(allowlist);
        let (certificates, certificate_violations) = certify_vulnerabilities();
        AnalysisReport {
            model,
            certificates,
            certificate_violations,
            lints,
        }
    }

    /// The per-state plan index: for every derived fuzz plan, how long the
    /// model's minimal witness to that state is and how much of it the
    /// guide's prelude actually replays.  This is the quick answer to "how
    /// deep is each state" an operator reads off the JSON report.
    pub fn plan_index(&self) -> Vec<PlanIndexEntry> {
        self.model
            .plans
            .iter()
            .map(|plan| PlanIndexEntry {
                state: plan.state,
                link: plan.link,
                kind: format!("{:?}", plan.kind),
                witness_len: crate::model::witness(plan.state, plan.link)
                    .map_or(0, |w| w.inputs.len()),
                prelude_len: plan.prelude.len(),
            })
            .collect()
    }

    /// `true` when every claim was proven and no lint fired.
    pub fn is_clean(&self) -> bool {
        self.model.violations.is_empty()
            && self.certificate_violations.is_empty()
            && self.lints.as_ref().is_none_or(|l| l.findings.is_empty())
    }

    /// All gating problems, flattened for display.
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .model
            .violations
            .iter()
            .chain(&self.certificate_violations)
            .map(|v| format!("[{}] {}", v.check, v.detail))
            .collect();
        if let Some(lints) = &self.lints {
            out.extend(
                lints
                    .findings
                    .iter()
                    .map(|f| format!("[lint:{}] {}:{}: {}", f.lint, f.file, f.line, f.message)),
            );
        }
        out
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "l2fuzz-analyze: protocol model check");
        let _ = writeln!(s, "====================================");
        for (link, count) in [("BR/EDR", 13usize), ("LE", 5usize)] {
            let witnesses = self
                .model
                .witnesses
                .iter()
                .filter(|w| crate::plan::link_name(w.link) == link)
                .count();
            let _ = writeln!(
                s,
                "{link}: {witnesses} reachable states (expected {count}), all with replayable \
                 minimal witnesses"
            );
        }
        let _ = writeln!(
            s,
            "fuzz plans derived: {} (all validated against the state machine)",
            self.model.plans.len()
        );
        let _ = writeln!(
            s,
            "dead transition rows: {} (all pinned in the allowlist)",
            self.model.dead_rows.len()
        );
        let _ = writeln!(
            s,
            "BR/EDR vs LE asymmetries: {} (all pinned in the allowlist)",
            self.model.asymmetries.len()
        );
        for a in &self.model.asymmetries {
            let _ = writeln!(
                s,
                "  ({:?}, {:?}): BR/EDR {:?} vs LE {:?}",
                a.state, a.code, a.bredr, a.le
            );
        }
        let _ = writeln!(
            s,
            "vulnerability certificates: {} across {} profiles",
            self.certificates.len(),
            self.certificates
                .iter()
                .map(|c| c.profile.as_str())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
        if let Some(lints) = &self.lints {
            let _ = writeln!(
                s,
                "lints: {} files scanned, {} pinned panic sites, {} advisory index sites",
                lints.files_scanned, lints.allowed_panics, lints.index_sites
            );
        }
        let problems = self.problems();
        if problems.is_empty() {
            let _ = writeln!(s, "RESULT: clean — every reachability claim is proven");
        } else {
            let _ = writeln!(s, "RESULT: {} violation(s)", problems.len());
            for p in &problems {
                let _ = writeln!(s, "  {p}");
            }
        }
        s
    }
}

/// One row of [`AnalysisReport::plan_index`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PlanIndexEntry {
    /// The state the plan drives toward.
    pub state: l2cap::state::ChannelState,
    /// The transport.
    pub link: btcore::LinkType,
    /// The plan's kind (`Debug` rendering of [`crate::plan::PlanKind`]).
    pub kind: String,
    /// Length of the model's minimal witness to `state` (0 for `CLOSED`).
    pub witness_len: usize,
    /// Length of the plan's guide-replayable prelude.
    pub prelude_len: usize,
}

/// Streams the stored fields next to the computed `plan_index` and the
/// `clean` verdict.
impl StreamSerialize for AnalysisReport {
    fn stream(&self, w: &mut JsonStreamWriter) {
        w.begin_object()
            .field("model", &self.model)
            .field("plan_index", &self.plan_index())
            .field("certificates", &self.certificates)
            .field("certificate_violations", &self.certificate_violations)
            .field("lints", &self.lints)
            .field("clean", &self.is_clean())
            .end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_analysis_is_clean() {
        let report = AnalysisReport::run(&Allowlist::default(), None);
        assert!(report.is_clean(), "{:#?}", report.problems());
        assert_eq!(report.model.witnesses.len(), 18);
        assert!(!report.certificates.is_empty());
    }

    #[test]
    fn text_report_mentions_the_verdict() {
        let report = AnalysisReport::run(&Allowlist::default(), None);
        let text = report.render_text();
        assert!(text.contains("RESULT: clean"));
        assert!(text.contains("BR/EDR: 13 reachable states"));
        assert!(text.contains("LE: 5 reachable states"));
    }

    #[test]
    fn empty_allowlist_is_reported_dirty() {
        let report = AnalysisReport::run(&Allowlist::empty(), None);
        assert!(!report.is_clean());
        assert!(report.render_text().contains("violation(s)"));
    }

    #[test]
    fn json_report_round_trips_as_valid_json() {
        let report = AnalysisReport::run(&Allowlist::default(), None);
        let json = serde_json::to_string(&report);
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(value.get("clean"), Some(&serde_json::Value::Bool(true)));
        let witnesses = value
            .get("model")
            .and_then(|m| m.get("witnesses"))
            .expect("model.witnesses present");
        assert!(witnesses.as_array().is_some_and(|w| w.len() == 18));
    }

    #[test]
    fn plan_index_reports_per_state_witness_lengths() {
        let report = AnalysisReport::run(&Allowlist::default(), None);
        let index = report.plan_index();
        // One entry per derived plan: every reachable (state, link) pair.
        assert_eq!(index.len(), report.model.plans.len());
        assert_eq!(index.len(), 18);
        for entry in &index {
            // CLOSED is the initial state; everything else needs a witness.
            if entry.state == l2cap::state::ChannelState::Closed {
                assert_eq!(entry.witness_len, 0);
            } else {
                assert!(entry.witness_len > 0, "{entry:?}");
            }
            // Kind-specific shape: closed-fuzzing plans send no prelude,
            // and an at-rest plan replays exactly the minimal witness.
            match entry.kind.as_str() {
                "ClosedFuzzing" => assert_eq!(entry.prelude_len, 0, "{entry:?}"),
                "AtRest" => assert_eq!(entry.prelude_len, entry.witness_len, "{entry:?}"),
                _ => {}
            }
        }

        // And the JSON report carries the index.
        let json = serde_json::to_string(&report);
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let rows = value.get("plan_index").expect("plan_index present");
        let rows = rows.as_array().expect("plan_index is an array");
        assert_eq!(rows.len(), 18);
        assert!(rows.iter().all(|r| {
            r.get("witness_len").is_some()
                && r.get("prelude_len").is_some()
                && r.get("state").is_some()
                && r.get("kind").is_some()
        }));
    }
}
