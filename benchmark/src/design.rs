//! `design_paper`: exact analysis of every star set the paper evaluates,
//! under each self-loop policy, plus a design search.  Single-threaded, no
//! edges generated: kron-core over kron-bignum only.

use std::collections::BTreeMap;
use std::time::Instant;

use kron_bignum::BigUint;
use kron_core::powerlaw::PowerLawFit;
use kron_core::{DesignSearch, DesignTargets, KroneckerDesign, SelfLoop, DEFAULT_POOL};

use crate::check::{self, Loop};
use crate::{Config, Outcome, PassTrace, Workload};

/// The paper's star sets: Fig. 1, Figs. 3/4, Figs. 5/6 and Fig. 7.
const STAR_SETS: [(&str, &[u64]); 4] = [
    ("fig1", &[5, 3]),
    ("fig3_4", &[3, 4, 5, 9, 16, 25, 81, 256]),
    ("fig5_6", &[3, 4, 5, 9, 16, 25, 81, 256, 625]),
    (
        "fig7",
        &[
            3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641,
        ],
    ),
];

/// `(set, policy, vertices, edges, triangles)` exactly as the paper prints
/// them.  Fig. 6's triangle count is left out: its caption differs from the
/// exact value by one unit in the last place (double rounding above 2^53).
const PAPER_COUNTS: [(&str, Loop, &str, &str, &str); 5] = [
    ("fig3_4", Loop::None, "11177649600", "1146617856000", "0"),
    (
        "fig3_4",
        Loop::Centre,
        "11177649600",
        "1853002140758",
        "6777007252427",
    ),
    (
        "fig5_6",
        Loop::None,
        "6997208649600",
        "1433272320000000",
        "0",
    ),
    (
        "fig5_6",
        Loop::Centre,
        "6997208649600",
        "2318105678089508",
        "",
    ),
    (
        "fig7",
        Loop::Leaf,
        "144111718793178936483840000",
        "2705963586782877716483871216764",
        "178940587",
    ),
];

/// Fig. 2's triangle counts for `[5, 3]`: 15 with centre loops, 1 with leaf
/// loops, 0 without.
const FIG1_TRIANGLES: [(Loop, u128); 3] = [(Loop::None, 0), (Loop::Centre, 15), (Loop::Leaf, 1)];

/// Search targets: the generated-graph scale (10^9), Fig. 3 (10^12) and
/// Fig. 5 (10^15), each stretched by a seed-chosen factor in [1, 1.1).
const TARGET_EXPONENTS: [u32; 3] = [9, 12, 15];
/// Constituents per searched design: five keeps one search near 70 ms.
const SEARCH_MAX_CONSTITUENTS: usize = 5;
const SEARCH_TOP_K: usize = 5;

fn self_loop(policy: Loop) -> SelfLoop {
    match policy {
        Loop::None => SelfLoop::None,
        Loop::Centre => SelfLoop::Centre,
        Loop::Leaf => SelfLoop::Leaf,
    }
}

fn to_u128(value: &BigUint) -> Result<u128, String> {
    value
        .to_u128()
        .ok_or_else(|| format!("{value} does not fit u128"))
}

pub struct DesignPaper {
    designs: Vec<(&'static str, Loop, &'static [u64], KroneckerDesign)>,
    search: DesignSearch,
    targets: Vec<DesignTargets>,
}

pub struct Expected {
    distributions: Vec<BTreeMap<u128, u128>>,
}

fn seed_stretch(seed: u64, index: u64) -> u64 {
    // SplitMix64 finaliser: a seed-determined value in [0, 1000).
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1000
}

impl Workload for DesignPaper {
    type Expected = Expected;

    fn expected(_config: &Config) -> Expected {
        let distributions = STAR_SETS
            .iter()
            .flat_map(|(_, points)| {
                Loop::ALL
                    .iter()
                    .map(|&policy| check::degree_distribution(points, policy))
            })
            .collect();
        Expected { distributions }
    }

    fn setup(config: &Config) -> Result<Self, String> {
        let mut designs = Vec::new();
        for (name, points) in STAR_SETS {
            for policy in Loop::ALL {
                let design = KroneckerDesign::from_star_points(points, self_loop(policy))
                    .map_err(|e| e.to_string())?;
                designs.push((name, policy, points, design));
            }
        }
        let targets = TARGET_EXPONENTS
            .iter()
            .enumerate()
            .map(|(i, &exponent)| {
                let stretch = 10_000 + 10 * seed_stretch(config.seed, i as u64);
                let edges = BigUint::from(10u64).pow(exponent - 4) * BigUint::from(stretch);
                let mut targets = DesignTargets::edges(edges);
                targets.max_constituents = SEARCH_MAX_CONSTITUENTS;
                targets
            })
            .collect();
        Ok(DesignPaper {
            designs,
            search: DesignSearch::new(DEFAULT_POOL.to_vec()),
            targets,
        })
    }

    fn pass(&mut self, expected: &Expected, trace: Option<&PassTrace>) -> Result<Outcome, String> {
        let timed = |id: &str, name: &'static str, f: &mut dyn FnMut()| match trace {
            Some(t) => t.tracer.time(format!("{}/{id}", t.prefix), name, t.pass, f),
            None => f(),
        };
        let started = Instant::now();
        let mut results = Vec::with_capacity(self.designs.len());
        for (set, policy, _, design) in &self.designs {
            let id = format!("{set}-{}", policy.name());
            let vertices = design.vertices();
            let edges = design.edges();
            let mut triangles = None;
            timed(
                &format!("{id}/triangles"),
                "KroneckerDesign::triangles",
                &mut || triangles = Some(design.triangles()),
            );
            let mut dist = None;
            timed(
                &format!("{id}/degree_distribution"),
                "KroneckerDesign::degree_distribution",
                &mut || dist = Some(design.degree_distribution()),
            );
            let dist = dist.expect("timed call ran");
            let mut fit = None;
            timed(
                &format!("{id}/fit"),
                "PowerLawFit::from_distribution",
                &mut || fit = Some(PowerLawFit::from_distribution(&dist)),
            );
            let triangles = triangles
                .expect("timed call ran")
                .map_err(|e| e.to_string())?;
            results.push((
                vertices,
                edges,
                triangles,
                dist,
                fit.expect("timed call ran"),
            ));
        }
        let mut searches = Vec::with_capacity(self.targets.len());
        for (i, targets) in self.targets.iter().enumerate() {
            let mut found = None;
            timed(&format!("search{i}"), "DesignSearch::search", &mut || {
                found = Some(self.search.search(targets, SEARCH_TOP_K))
            });
            searches.push(found.expect("timed call ran").map_err(|e| e.to_string())?);
        }
        let seconds = started.elapsed().as_secs_f64();

        // Checks, outside the timed region.
        let mut support_points = 0u64;
        let check = (|| -> Result<(), String> {
            for (((set, policy, points, _), result), expected_dist) in self
                .designs
                .iter()
                .zip(&results)
                .zip(&expected.distributions)
            {
                let (vertices, edges, triangles, dist, fit) = result;
                let label = format!("{set} {}", policy.name());
                let want_vertices = check::vertices(points);
                let want_edges = check::edges(points, *policy);
                if to_u128(vertices)? != want_vertices || to_u128(edges)? != want_edges {
                    return Err(format!(
                        "{label}: {vertices} vertices / {edges} edges, closed forms give {want_vertices} / {want_edges}"
                    ));
                }
                let mut measured = BTreeMap::new();
                for (d, n) in dist.iter() {
                    measured.insert(to_u128(d)?, to_u128(n)?);
                }
                if check::distribution_sums(&measured) != (want_vertices, want_edges) {
                    return Err(format!("{label}: Σn(d) or Σd·n(d) misses the closed forms"));
                }
                if &measured != expected_dist {
                    return Err(format!(
                        "{label}: degree distribution differs from the star product"
                    ));
                }
                support_points += measured.len() as u64;
                for (paper_set, paper_policy, v, e, t) in PAPER_COUNTS {
                    if paper_set == *set && paper_policy == *policy {
                        let printed = [(v, vertices), (e, edges)];
                        if printed.iter().any(|(want, got)| got.to_string() != *want)
                            || (!t.is_empty() && triangles.to_string() != t)
                        {
                            return Err(format!("{label}: counts differ from the paper"));
                        }
                    }
                }
                if *set == "fig1" {
                    let (_, want) = FIG1_TRIANGLES
                        .iter()
                        .find(|(p, _)| p == policy)
                        .expect("every policy listed");
                    if to_u128(triangles)? != *want {
                        return Err(format!(
                            "{label}: {triangles} triangles, Fig. 2 gives {want}"
                        ));
                    }
                }
                if *policy == Loop::None && check::products_unique(points) {
                    // n(d)·d is one constant: the exact power law of slope 1.
                    let constant = measured.iter().next().map(|(d, n)| d * n);
                    if measured.iter().any(|(d, n)| Some(d * n) != constant) {
                        return Err(format!("{label}: not an exact power law"));
                    }
                    let alpha = fit.as_ref().map_or(f64::NAN, |f| f.alpha);
                    if (alpha - 1.0).abs() > 1e-9 {
                        return Err(format!("{label}: fitted slope {alpha}, exact law has 1"));
                    }
                }
            }
            for (targets, candidates) in self.targets.iter().zip(&searches) {
                if candidates.is_empty() {
                    return Err(format!("search for {} edges found nothing", targets.edges));
                }
                for candidate in candidates {
                    let points = &candidate.points;
                    if to_u128(&candidate.edges)? != check::edges(points, Loop::None)
                        || to_u128(&candidate.vertices)? != check::vertices(points)
                        || !check::products_unique(points)
                        || points.len() > SEARCH_MAX_CONSTITUENTS
                    {
                        return Err(format!("search candidate {points:?} misreports its counts"));
                    }
                }
            }
            Ok(())
        })();
        Ok(Outcome {
            seconds,
            edges: 0,
            parts: vec![("core.support_points", support_points as f64)],
            check,
        })
    }
}
