//! The workloads: fixed shapes from `workloads.json`, inputs from the seed.

use crate::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Physics {
    Acoustic,
    Tti,
    Elastic,
}

/// Wave-front tile extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    pub x: usize,
    pub y: usize,
    pub t: usize,
}

/// Which loop schedule an operation runs under. `SpaceBlocked` is always
/// 8×8 blocks with classic sparse operators (the paper's baseline);
/// `Wavefront` is the dataflow wave-front with fused, compressed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    SpaceBlocked,
    Wavefront(Tile),
}

/// One workload's fixed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub physics: Physics,
    pub n: usize,
    pub nt: usize,
    pub so: usize,
    /// The production schedule.
    pub sched: Sched,
    /// The wave-front tile: production for a `Wavefront` workload, the
    /// what-if of the traced probes for a `SpaceBlocked` one.
    pub tile: Tile,
    pub block: (usize, usize),
    pub receivers: usize,
    /// 0 = one solve; otherwise a survey of this many shots.
    pub shots: usize,
    /// 0 = no tile cache; otherwise its capacity.
    pub cache_mb: usize,
    /// The traced run also times this workload on the `--features obs` build.
    pub obs_probe: bool,
}

impl Spec {
    pub fn is_survey(&self) -> bool {
        self.shots > 0
    }

    pub fn radius(&self) -> usize {
        self.so / 2
    }

    /// Point updates of one operation.
    pub fn point_updates(&self) -> f64 {
        (self.n as f64).powi(3) * self.nt as f64 * self.shots.max(1) as f64
    }

    /// Wavefield and coefficient arrays the propagator keeps, in units of
    /// one `n³` `f32` volume — computed from the propagators' layout, not
    /// measured. A survey keeps one set of coefficients plus, per worker
    /// thread, a clone of them and a three-level ring.
    pub fn working_set_mb(&self, threads: usize) -> f64 {
        let volumes = match (self.physics, self.is_survey()) {
            (Physics::Acoustic, false) => 3 + 3,
            (Physics::Acoustic, true) => 3 + threads.min(self.shots) * (3 + 3),
            (Physics::Tti, _) => 2 * 3 + 5 + 6,
            (Physics::Elastic, _) => 9 * 2 + 5,
        };
        volumes as f64 * (self.n as f64).powi(3) * 4.0 / 1e6
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("workloads.json: missing `{key}`"))
}

fn usize_of(v: &Value, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as usize)
        .ok_or_else(|| format!("workloads.json: `{key}` is not a whole number"))
}

fn usizes_of(v: &Value, key: &str, len: usize) -> Result<Vec<usize>, String> {
    let items = field(v, key)?
        .as_arr()
        .filter(|a| a.len() == len)
        .ok_or_else(|| format!("workloads.json: `{key}` must list {len} numbers"))?;
    items
        .iter()
        .map(|i| {
            i.as_f64()
                .filter(|n| *n >= 1.0 && n.fract() == 0.0)
                .map(|n| n as usize)
                .ok_or_else(|| format!("workloads.json: `{key}` holds a bad extent"))
        })
        .collect()
}

/// Parse the workload table; `smoke` swaps in the small smoke-test shape.
pub fn load(text: &str, smoke: bool) -> Result<Vec<Spec>, String> {
    let root = json::parse(text)?;
    let small = field(&root, "smoke")?;
    let list = field(&root, "workloads")?
        .as_arr()
        .ok_or("workloads.json: `workloads` is not a list")?;
    list.iter()
        .map(|w| {
            let text_of = |key: &str| {
                field(w, key)?
                    .as_str()
                    .ok_or_else(|| format!("workloads.json: `{key}` is not a string"))
            };
            let tile = usizes_of(w, "tile", 3)?;
            let tile = Tile {
                x: tile[0],
                y: tile[1],
                t: tile[2],
            };
            let block = usizes_of(w, "block", 2)?;
            let dims = if smoke { small } else { w };
            let spec = Spec {
                name: text_of("name")?.to_string(),
                physics: match text_of("physics")? {
                    "acoustic" => Physics::Acoustic,
                    "tti" => Physics::Tti,
                    "elastic" => Physics::Elastic,
                    other => return Err(format!("workloads.json: unknown physics `{other}`")),
                },
                n: usize_of(dims, "n")?,
                nt: usize_of(dims, "nt")?,
                so: usize_of(w, "so")?,
                sched: match text_of("schedule")? {
                    "wavefront" => Sched::Wavefront(tile),
                    "spaceblocked" => Sched::SpaceBlocked,
                    other => return Err(format!("workloads.json: unknown schedule `{other}`")),
                },
                tile,
                block: (block[0], block[1]),
                receivers: usize_of(w, "receivers")?,
                shots: usize_of(w, "shots")?,
                cache_mb: usize_of(w, "cache_mb")?,
                obs_probe: w.get("obs_probe").and_then(Value::as_bool).unwrap_or(false),
            };
            if spec.n < 16 || spec.nt < 2 || !matches!(spec.so, 4 | 8) || spec.receivers == 0 {
                return Err(format!(
                    "workloads.json: `{}` has an unsupported shape",
                    spec.name
                ));
            }
            if spec.is_survey() && spec.physics != Physics::Acoustic {
                return Err(format!(
                    "workloads.json: `{}`: surveys are acoustic",
                    spec.name
                ));
            }
            if spec.cache_mb > 0 && (spec.shots < 3 || spec.sched == Sched::SpaceBlocked) {
                return Err(format!(
                    "workloads.json: `{}`: a cached rerun needs a wave-front survey of ≥ 3 shots",
                    spec.name
                ));
            }
            Ok(spec)
        })
        .collect()
}

/// The workload table compiled into the binary.
pub fn table(smoke: bool) -> Vec<Spec> {
    load(include_str!("../workloads.json"), smoke).expect("workloads.json is malformed")
}

/// SplitMix64: the benchmark's own generator, so inputs depend on nothing
/// but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
    }
}

/// Everything the seed decides. Positions are fractions of the domain's
/// extent. Sources stay in the middle fifth of the volume so that every seed
/// gives the wavefield the same room to spread: the work of a solve then
/// does not depend on the seed, only its data does.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Seeds the random perturbation of the material model.
    pub model_seed: u64,
    /// Source of a single solve.
    pub source: [f32; 3],
    /// Depth of the receiver line.
    pub receiver_depth: f32,
    /// Shot positions of a survey, on a jittered line along x.
    pub shots: Vec<[f32; 3]>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = SplitMix(seed ^ 0x7E3D_9E57);
        let model_seed = rng.next_u64();
        let source = [
            rng.range(0.4, 0.6),
            rng.range(0.4, 0.6),
            rng.range(0.4, 0.6),
        ];
        let receiver_depth = rng.range(0.15, 0.25);
        let shot_depth = rng.range(0.3, 0.4);
        let shots = (0..spec.shots)
            .map(|s| {
                let fx = (s as f32 + 1.0) / (spec.shots as f32 + 1.0);
                [
                    fx + rng.range(-0.02, 0.02),
                    0.5 + rng.range(-0.02, 0.02),
                    shot_depth,
                ]
            })
            .collect();
        Inputs {
            model_seed,
            source,
            receiver_depth,
            shots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_parses_in_both_sizes() {
        let full = table(false);
        let smoke = table(true);
        assert_eq!(full.len(), smoke.len());
        for (f, s) in full.iter().zip(&smoke) {
            assert_eq!(f.name, s.name);
            assert_eq!((s.n, s.nt), (32, 8));
            assert_eq!(f.tile, s.tile);
        }
        let cold = full.iter().find(|s| s.name == "survey_cold_128").unwrap();
        assert_eq!(cold.sched, Sched::SpaceBlocked);
        assert!(cold.is_survey() && cold.cache_mb == 0);
    }

    #[test]
    fn malformed_tables_are_refused() {
        let table =
            |entry: &str| format!(r#"{{"workloads": [{entry}], "smoke": {{"n": 32, "nt": 8}}}}"#);
        let good = r#"{"name": "w", "physics": "acoustic", "n": 64, "nt": 16, "so": 4,
            "schedule": "wavefront", "tile": [16, 16, 8], "block": [8, 8],
            "receivers": 8, "shots": 0, "cache_mb": 0}"#;
        assert_eq!(
            load(&table(good), false).unwrap()[0].tile,
            Tile { x: 16, y: 16, t: 8 }
        );
        for (from, to) in [
            ("\"acoustic\"", "\"sh\""),
            ("[16, 16, 8]", "[16, 0, 8]"),
            ("\"n\": 64", "\"n\": 2.5"),
            ("\"so\": 4", "\"so\": 6"),
            ("\"cache_mb\": 0", "\"cache_mb\": 64"),
            ("\"schedule\": \"wavefront\",", ""),
        ] {
            assert!(good.contains(from), "fixture drifted: {from}");
            assert!(
                load(&table(&good.replacen(from, to, 1)), false).is_err(),
                "accepted {to}"
            );
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let spec = &table(false)[3];
        assert_eq!(Inputs::generate(spec, 5), Inputs::generate(spec, 5));
        assert_ne!(Inputs::generate(spec, 5), Inputs::generate(spec, 6));
        let inp = Inputs::generate(spec, 5);
        assert_eq!(inp.shots.len(), spec.shots);
        for p in inp.shots.iter().chain([&inp.source]) {
            assert!(p.iter().all(|f| (0.05..0.95).contains(f)), "{p:?}");
        }
    }
}
