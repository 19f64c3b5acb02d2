//! Workload inputs with their known answers.

use crate::answers;
use crate::batch::Input;
use pathinv_bench::generator::{
    generate_campaign, Family, GeneratedProgram, MutationKind, Scenario,
};
use std::collections::BTreeMap;

/// Draws of a generated campaign; the workloads keep one program per
/// stratum from them, and every stratum fills within this many draws for
/// nearly every seed.
const CAMPAIGN_DRAWS: usize = 4000;

/// The paper corpus (`pathinv_cli::corpus_programs()`) with the
/// hand-written answers.
pub fn corpus() -> Result<Vec<Input>, String> {
    pathinv_cli::corpus_programs()
        .into_iter()
        .map(|(name, program)| {
            let safe = answers::corpus_safe(&name)
                .ok_or_else(|| format!("no known answer for corpus program {name}"))?;
            Ok(Input { name, program, safe, source: None })
        })
        .collect()
}

/// The serve corpus sources (`pathinv_cli::corpus_sources()`) with the
/// hand-written answers.
pub fn corpus_sources() -> Result<Vec<(String, String, bool)>, String> {
    pathinv_cli::corpus_sources()
        .into_iter()
        .map(|(name, src)| {
            let safe = answers::corpus_safe(&name)
                .ok_or_else(|| format!("no known answer for corpus source {name}"))?;
            Ok((name, src, safe))
        })
        .collect()
}

/// `generate_campaign(seed, CAMPAIGN_DRAWS)`, keeping the first drawn
/// program of each stratum that `keep` names (`None` drops the program),
/// in stratum order.  Fixing the strata gives every seed the same mix of
/// program shapes and sizes; the seed picks the rest.
pub fn generated<K: Ord>(
    seed: u64,
    keep: impl Fn(&GeneratedProgram) -> Option<K>,
) -> Result<Vec<Input>, String> {
    let campaign = generate_campaign(seed, CAMPAIGN_DRAWS);
    if !campaign.defects.is_empty() {
        return Err(format!("generator defects: {}", campaign.defects.join("; ")));
    }
    let mut kept = BTreeMap::new();
    for p in campaign.programs {
        if let Some(stratum) = keep(&p) {
            kept.entry(stratum).or_insert(p);
        }
    }
    Ok(kept
        .into_values()
        .map(|p| Input {
            safe: answers::generated_safe(&p),
            name: p.name,
            program: p.program,
            source: Some(p.source),
        })
        .collect())
}

/// (family index, bug index): bug 0 is none, bug `1 + 3 * kind + site`
/// one of the three kinds at one of three sites.
fn bug_stratum(s: &Scenario) -> Option<(usize, usize)> {
    let family = Family::ALL.iter().position(|f| *f == s.family)?;
    let bug = s.mutation.map_or(0, |m| {
        let kind = match m.kind {
            MutationKind::OffByOne => 0,
            MutationKind::GuardFlip => 1,
            MutationKind::AssignSwap => 2,
        };
        1 + 3 * kind + usize::from(m.site)
    });
    Some((family, bug))
}

/// The serve-stream strata: (family, injected bug, bound, stride) for the
/// two families whose programs all settle in milliseconds (lockstep
/// counters and parity), 120 in all.  The heavier families made a round's
/// cold work depend on the seed by a quarter; these add many small jobs
/// after the corpus's few heavy ones, enough that the 95th percentile of
/// cold task time falls among them: with half as many it fell on the step
/// between the corpus's heavy jobs and the generated ones, and moved by a
/// third between seeds.
pub fn serve_stratum(p: &GeneratedProgram) -> Option<(usize, usize, u8, u8)> {
    let s = &p.scenario;
    let cheap = matches!(s.family, Family::Lockstep | Family::Parity);
    let (family, bug) = bug_stratum(s)?;
    cheap.then_some((family, bug, s.bound, s.stride))
}
