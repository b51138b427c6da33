//! The program catalog: paper Tables I and III as data plus renderers.

use crate::classes::{self, ProblemClass};

/// One profiled program (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramInfo {
    /// Short name as the paper prints it.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: &'static str,
    /// The paper's one-line kernel description.
    pub kernel: &'static str,
    /// Qualitative contention tier the paper assigns in §V.
    pub contention: ContentionTier,
}

/// The paper's qualitative contention ordering (§V): SP worst, then CG and
/// FT, then IS, with EP and all PARSEC programs low.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ContentionTier {
    /// Negligible contention (EP, x264).
    Low,
    /// Moderate (IS).
    Moderate,
    /// High (CG, FT).
    High,
    /// The largest observed (SP).
    Highest,
}

/// Table I: the five NPB kernels plus x264.
pub const PROGRAMS: [ProgramInfo; 6] = [
    ProgramInfo {
        name: "EP",
        suite: "NPB 3.3",
        kernel: "Embarrassingly parallel: low data dependency, low memory",
        contention: ContentionTier::Low,
    },
    ProgramInfo {
        name: "FT",
        suite: "NPB 3.3",
        kernel: "Spectral methods: fast Fourier transform",
        contention: ContentionTier::High,
    },
    ProgramInfo {
        name: "IS",
        suite: "NPB 3.3",
        kernel: "Parallel sorting: bucket sort on integers",
        contention: ContentionTier::Moderate,
    },
    ProgramInfo {
        name: "CG",
        suite: "NPB 3.3",
        kernel: "Sparse linear algebra: data with many 0 values",
        contention: ContentionTier::High,
    },
    ProgramInfo {
        name: "SP",
        suite: "NPB 3.3",
        kernel: "Structured grid: pentadiagonal solver",
        contention: ContentionTier::Highest,
    },
    ProgramInfo {
        name: "x264",
        suite: "PARSEC 2.1",
        kernel: "Video encoding using H264 codec",
        contention: ContentionTier::Low,
    },
];

/// Looks a program up by name (case-sensitive, as printed).
pub fn program(name: &str) -> Option<ProgramInfo> {
    PROGRAMS.iter().copied().find(|p| p.name == name)
}

/// Renders Table I.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str("TABLE I — Five NPB 3.3 and one PARSEC 2.1 parallel programs\n");
    out.push_str(&format!(
        "{:<6} {:<10} {}\n",
        "Name", "Suite", "Parallel kernel"
    ));
    for p in PROGRAMS {
        out.push_str(&format!("{:<6} {:<10} {}\n", p.name, p.suite, p.kernel));
    }
    out
}

/// Renders Table III: problem-size descriptions for CG and x264.
pub fn render_table3() -> String {
    let mut out = String::new();
    out.push_str("TABLE III — Problem size description for CG and x264\n");
    out.push_str(&format!(
        "{:<18} {}\n",
        "Program and Size", "Problem Size Description"
    ));
    for class in ProblemClass::ALL {
        let n = classes::cg_order(class);
        out.push_str(&format!(
            "{:<18} matrix of size {n}²\n",
            format!("CG.{class}")
        ));
    }
    for input in classes::X264_INPUTS {
        out.push_str(&format!(
            "{:<18} {} frames at {} x {}\n",
            format!("x264.{}", input.name),
            input.frames,
            input.width,
            input.height
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_programs_as_in_table1() {
        assert_eq!(PROGRAMS.len(), 6);
        assert!(program("SP").is_some());
        assert!(program("x264").is_some());
        assert!(program("MG").is_none());
    }

    #[test]
    fn contention_ordering_matches_section_v() {
        assert!(program("SP").unwrap().contention > program("CG").unwrap().contention);
        assert!(program("CG").unwrap().contention > program("IS").unwrap().contention);
        assert!(program("IS").unwrap().contention > program("EP").unwrap().contention);
        assert_eq!(program("x264").unwrap().contention, ContentionTier::Low);
    }

    #[test]
    fn tables_render_paper_rows() {
        let t1 = render_table1();
        assert!(t1.contains("pentadiagonal solver"));
        assert!(t1.contains("PARSEC 2.1"));
        let t3 = render_table3();
        assert!(t3.contains("matrix of size 150000²"));
        assert!(t3.contains("512 frames at 1920 x 1080"));
    }
}
