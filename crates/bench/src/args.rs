//! Minimal CLI argument handling shared by the harness binaries (keeps the
//! workspace free of an argument-parsing dependency).

use tempest_core::operator::KernelPath;

/// Common harness options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Grid edge length (cube grids).
    pub size: usize,
    /// Timesteps per measured run.
    pub nt: usize,
    /// Quick smoke-test mode.
    pub fast: bool,
    /// Space orders to sweep.
    pub space_orders: Vec<usize>,
    /// Models to run (subset of "acoustic", "tti", "elastic").
    pub models: Vec<String>,
    /// Dense-kernel backend: auto-detected best, scalar reference loops,
    /// the vector bodies at four lanes (portable) or at 256 bits (avx2).
    pub kernel: KernelPath,
}

impl HarnessArgs {
    /// Parse from `std::env::args` with the given defaults.
    pub fn parse(default_size: usize, default_nt: usize) -> Self {
        let argv: Vec<String> = std::env::args().collect();
        Self::parse_from(&argv, default_size, default_nt)
    }

    /// Parse from an explicit argv (testable).
    pub fn parse_from(argv: &[String], default_size: usize, default_nt: usize) -> Self {
        let mut a = HarnessArgs {
            size: default_size,
            nt: default_nt,
            fast: false,
            space_orders: vec![4, 8, 12],
            models: vec!["acoustic".into(), "tti".into(), "elastic".into()],
            kernel: KernelPath::default(),
        };
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--size" => {
                    i += 1;
                    a.size = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .expect("--size needs an integer");
                }
                "--nt" => {
                    i += 1;
                    a.nt = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .expect("--nt needs an integer");
                }
                "--so" => {
                    i += 1;
                    a.space_orders = argv
                        .get(i)
                        .expect("--so needs a comma-separated list")
                        .split(',')
                        .map(|s| s.parse().expect("space order must be an integer"))
                        .collect();
                }
                "--model" => {
                    i += 1;
                    a.models = argv
                        .get(i)
                        .expect("--model needs a comma-separated list")
                        .split(',')
                        .map(String::from)
                        .collect();
                }
                "--fast" => {
                    a.fast = true;
                }
                "--kernel" => {
                    i += 1;
                    a.kernel = argv
                        .get(i)
                        .and_then(|v| KernelPath::parse(v))
                        .unwrap_or_else(|| {
                            panic!(
                                "--kernel needs 'auto', 'scalar', 'portable' or 'avx2', \
                                 got {:?}",
                                argv.get(i)
                            )
                        });
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --size N (grid edge) --nt N (timesteps) \
                         --so 4,8,12 (space orders) \
                         --model acoustic,tti,elastic --fast (smoke test) \
                         --kernel auto|scalar|portable|avx2 (row-kernel backend, default auto \
                         = best available)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other}; try --help"),
            }
            i += 1;
        }
        if a.fast {
            a.size = a.size.min(96);
            a.nt = a.nt.min(12);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        std::iter::once("prog")
            .chain(args.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn defaults() {
        let a = HarnessArgs::parse_from(&sv(&[]), 256, 32);
        assert_eq!(a.size, 256);
        assert_eq!(a.nt, 32);
        assert!(!a.fast);
        assert_eq!(a.space_orders, vec![4, 8, 12]);
    }

    #[test]
    fn overrides() {
        let a = HarnessArgs::parse_from(
            &sv(&["--size", "512", "--nt", "64", "--so", "4,8"]),
            256,
            32,
        );
        assert_eq!(a.size, 512);
        assert_eq!(a.nt, 64);
        assert_eq!(a.space_orders, vec![4, 8]);
    }

    #[test]
    fn kernel_flag() {
        assert_eq!(
            HarnessArgs::parse_from(&sv(&["--kernel", "scalar"]), 64, 8).kernel,
            KernelPath::Scalar
        );
        assert_eq!(
            HarnessArgs::parse_from(&sv(&["--kernel", "avx2"]), 64, 8).kernel,
            KernelPath::Avx2
        );
        assert_eq!(
            HarnessArgs::parse_from(&sv(&["--kernel", "auto"]), 64, 8).kernel,
            KernelPath::Auto
        );
        assert_eq!(
            HarnessArgs::parse_from(&sv(&[]), 64, 8).kernel,
            KernelPath::Auto
        );
    }

    #[test]
    #[should_panic(expected = "--kernel needs")]
    fn kernel_flag_rejects_unknown() {
        let _ = HarnessArgs::parse_from(&sv(&["--kernel", "avx"]), 64, 8);
    }

    #[test]
    fn fast_caps() {
        let a = HarnessArgs::parse_from(&sv(&["--fast"]), 256, 32);
        assert!(a.size <= 96);
        assert!(a.nt <= 12);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag() {
        let _ = HarnessArgs::parse_from(&sv(&["--bogus"]), 256, 32);
    }
}
