//! Program and machine construction, at the experiment scale.

use offchip_machine::Workload;
use offchip_npb::classes::ProblemClass;
use offchip_npb::traces;
use offchip_topology::machines::{Preset, DEFAULT_EXPERIMENT_SCALE};
use offchip_topology::MachineSpec;

/// A program selector: one of the paper's six programs plus its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramSpec {
    /// NPB EP at a class.
    Ep(ProblemClass),
    /// NPB IS at a class.
    Is(ProblemClass),
    /// NPB FT at a class.
    Ft(ProblemClass),
    /// NPB CG at a class.
    Cg(ProblemClass),
    /// NPB SP at a class.
    Sp(ProblemClass),
    /// NPB MG at a class (the sixth profiled program, §III-A).
    Mg(ProblemClass),
    /// PARSEC x264 with a named input.
    X264(&'static str),
}

impl ProgramSpec {
    /// Display name, paper style (`CG.C`, `x264.native`).
    pub fn name(&self) -> String {
        match self {
            ProgramSpec::Ep(c) => format!("EP.{c}"),
            ProgramSpec::Is(c) => format!("IS.{c}"),
            ProgramSpec::Ft(c) => format!("FT.{c}"),
            ProgramSpec::Cg(c) => format!("CG.{c}"),
            ProgramSpec::Sp(c) => format!("SP.{c}"),
            ProgramSpec::Mg(c) => format!("MG.{c}"),
            ProgramSpec::X264(i) => format!("x264.{i}"),
        }
    }

    /// Parses paper notation (`CG.C`, `mg.W`, `x264.native`) into a spec —
    /// the single parser behind the CLI's `<program>` argument and the
    /// service's `"program"` request field.
    pub fn parse(name: &str) -> Result<ProgramSpec, String> {
        if let Some(input) = name.strip_prefix("x264.") {
            return match input {
                "simsmall" => Ok(ProgramSpec::X264("simsmall")),
                "simmedium" => Ok(ProgramSpec::X264("simmedium")),
                "simlarge" => Ok(ProgramSpec::X264("simlarge")),
                "native" => Ok(ProgramSpec::X264("native")),
                other => Err(format!("unknown x264 input {other:?}")),
            };
        }
        let (kernel, class) = name
            .split_once('.')
            .ok_or_else(|| format!("program {name:?} is not in paper notation (e.g. CG.C)"))?;
        let class = match class.to_ascii_uppercase().as_str() {
            "S" => ProblemClass::S,
            "W" => ProblemClass::W,
            "A" => ProblemClass::A,
            "B" => ProblemClass::B,
            "C" => ProblemClass::C,
            other => return Err(format!("unknown problem class {other:?}")),
        };
        match kernel.to_ascii_uppercase().as_str() {
            "EP" => Ok(ProgramSpec::Ep(class)),
            "IS" => Ok(ProgramSpec::Is(class)),
            "FT" => Ok(ProgramSpec::Ft(class)),
            "CG" => Ok(ProgramSpec::Cg(class)),
            "SP" => Ok(ProgramSpec::Sp(class)),
            "MG" => Ok(ProgramSpec::Mg(class)),
            other => Err(format!("unknown kernel {other:?}")),
        }
    }

    /// The five NPB programs of Table II at a given class.
    pub fn npb_suite(class: ProblemClass) -> Vec<ProgramSpec> {
        vec![
            ProgramSpec::Ep(class),
            ProgramSpec::Is(class),
            ProgramSpec::Ft(class),
            ProgramSpec::Cg(class),
            ProgramSpec::Sp(class),
        ]
    }

    /// The program Table II runs for this one on `machine`: FT.C runs as
    /// FT.B on the one-controller machine, as in the paper ("FT.C working
    /// set size exceeds 4 GB and leads to swapping").
    pub fn on_table2_machine(self, machine: &MachineSpec) -> ProgramSpec {
        match (self, machine.total_mcs()) {
            (ProgramSpec::Ft(ProblemClass::C), 1) => ProgramSpec::Ft(ProblemClass::B),
            (s, _) => s,
        }
    }
}

/// The geometric scale every experiment runs at.
pub fn experiment_scale() -> f64 {
    DEFAULT_EXPERIMENT_SCALE
}

/// A paper machine at [`experiment_scale`]: the machine every experiment
/// binary and the prediction service simulate for that preset.
pub fn experiment_machine(preset: Preset) -> MachineSpec {
    preset.spec().scaled(experiment_scale())
}

/// The paper's three machines at [`experiment_scale`], in the paper's
/// order.
pub fn experiment_machines() -> [MachineSpec; 3] {
    Preset::ALL.map(experiment_machine)
}

/// Builds the workload trace for a program on a machine with `threads`
/// threads (fixed at the machine's core count, per the paper's protocol).
pub fn build_workload(spec: ProgramSpec, threads: usize) -> Box<dyn Workload> {
    build_workload_scaled(spec, experiment_scale(), threads)
}

/// Builds the workload trace at an explicit geometric scale (the CLI's
/// `--scale` knob).
pub fn build_workload_scaled(spec: ProgramSpec, scale: f64, threads: usize) -> Box<dyn Workload> {
    match spec {
        ProgramSpec::Ep(c) => Box::new(traces::ep::workload(c, scale, threads)),
        ProgramSpec::Is(c) => Box::new(traces::is::workload(c, scale, threads)),
        ProgramSpec::Ft(c) => Box::new(traces::ft::workload(c, scale, threads)),
        ProgramSpec::Cg(c) => Box::new(traces::cg::workload(c, scale, threads)),
        ProgramSpec::Sp(c) => Box::new(traces::sp::workload(c, scale, threads)),
        ProgramSpec::Mg(c) => Box::new(traces::mg::workload(c, scale, threads)),
        ProgramSpec::X264(i) => Box::new(traces::x264::workload(i, scale, threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(ProgramSpec::Cg(ProblemClass::C).name(), "CG.C");
        assert_eq!(ProgramSpec::X264("native").name(), "x264.native");
    }

    #[test]
    fn suite_has_five_programs() {
        let suite = ProgramSpec::npb_suite(ProblemClass::W);
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].name(), "EP.W");
        assert_eq!(suite[4].name(), "SP.W");
    }

    #[test]
    fn hostile_program_names_parse_or_fail_typed() {
        // A name that parses is the program's own name in some letter
        // case, and that name parses back to the same program.
        let check = |input: &str| match ProgramSpec::parse(input) {
            Ok(spec) => {
                assert!(spec.name().eq_ignore_ascii_case(input), "{input:?}");
                assert_eq!(ProgramSpec::parse(&spec.name()), Ok(spec), "{input:?}");
            }
            Err(e) => assert!(!e.is_empty(), "{input:?}"),
        };
        let mut rng = offchip_simcore::Rng::new(0x0BAD_5EED);
        for valid in ["CG.C", "mg.w", "x264.native"] {
            check(valid);
            // Every printable single-byte substitution, and every
            // truncation.
            for i in 0..valid.len() {
                for b in b' '..=b'~' {
                    let mut bytes = valid.as_bytes().to_vec();
                    bytes[i] = b;
                    check(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"));
                }
            }
            for cut in 0..valid.len() {
                check(&valid[..cut]);
            }
            // Seeded garbage, three bytes in four from the valid name.
            for _ in 0..20_000 {
                let len = rng.next_below(2 * valid.len() as u64) as usize;
                let junk: Vec<u8> = (0..len)
                    .map(|_| match rng.next_below(4) {
                        0 => rng.next_u64() as u8,
                        _ => valid.as_bytes()[rng.next_below(valid.len() as u64) as usize],
                    })
                    .collect();
                check(&String::from_utf8_lossy(&junk));
            }
        }
    }

    #[test]
    fn workloads_build_with_requested_threads() {
        for spec in ProgramSpec::npb_suite(ProblemClass::S) {
            let w = build_workload(spec, 4);
            assert_eq!(w.n_threads(), 4, "{}", spec.name());
        }
        let w = build_workload(ProgramSpec::X264("simsmall"), 6);
        assert_eq!(w.n_threads(), 6);
    }

    #[test]
    fn table2_runs_ft_c_as_ft_b_on_the_uma_machine_only() {
        let [uma, numa, amd] = experiment_machines();
        let ft_c = ProgramSpec::Ft(ProblemClass::C);
        assert_eq!(ft_c.on_table2_machine(&uma).name(), "FT.B");
        assert_eq!(ft_c.on_table2_machine(&numa), ft_c);
        assert_eq!(ft_c.on_table2_machine(&amd), ft_c);
        for other in [
            ProgramSpec::Ft(ProblemClass::W),
            ProgramSpec::Cg(ProblemClass::C),
        ] {
            assert_eq!(other.on_table2_machine(&uma), other);
        }
    }
}
