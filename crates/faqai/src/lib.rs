//! # ij-faqai — the FAQ-AI comparator (paper Appendix F)
//!
//! An intersection join can be expressed as a disjunction of *inequality*
//! joins: two intervals `[l1, r1]` and `[l2, r2]` intersect exactly when
//! `(l1 ≤ l2 ≤ r1) ∨ (l2 ≤ l1 ≤ r2)`.  The paper's main comparator, FAQ-AI
//! \[2\], evaluates Boolean conjunctive queries with such additive inequalities
//! over *relaxed* tree decompositions, paying `O(N^{subw_ℓ} polylog N)` where
//! `subw_ℓ` is the relaxed submodular width.  Appendix F shows that this
//! exponent is 2, 2 and 3 for the triangle, Loomis–Whitney-4 and 4-clique
//! intersection-join queries, strictly worse than the ij-widths 3/2, 5/3
//! and 2 achieved by the reduction of Sections 4–5.
//!
//! This crate reproduces that comparator:
//!
//! * [`conjunct`] rewrites a pure IJ query into the FAQ-AI disjunction of
//!   inequality-join conjuncts (equations (15)–(17), (24), (37));
//! * [`relaxed`] computes optimal relaxed tree decompositions, the relaxed
//!   fractional hypertree width, the FAQ-AI `log` exponent, and Table 3;
//! * [`evaluate`] is a Boolean evaluator over those decompositions whose
//!   dominant cost is the `Θ(N^{fhtw_ℓ})` bag materialisation, providing the
//!   empirical comparator column of Table 1.
//!
//! ```
//! use ij_faqai::prelude::*;
//! use ij_relation::Query;
//!
//! let triangle = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//! let analysis = analyze_disjunction(&faqai_disjunction(&triangle).unwrap());
//! assert_eq!(analysis.width, 2);            // fhtw_ℓ = subw_ℓ = 2
//! assert_eq!(analysis.runtime(), "O(N^2 log^3 N)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conjunct;
pub mod evaluate;
pub mod relaxed;

pub use conjunct::{
    containing_atoms, faqai_disjunction, Endpoint, FaqAiConjunct, FaqAiError, Inequality, ScalarVar,
};
pub use evaluate::{evaluate_faqai, evaluate_faqai_boolean, FaqAiEvaluation};
pub use relaxed::{
    analyze_disjunction, optimal_relaxed_decomposition, table3, ConjunctAnalysis, FaqAiAnalysis,
    RelaxedDecomposition, Table3Row,
};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::conjunct::{faqai_disjunction, FaqAiConjunct, FaqAiError};
    pub use crate::evaluate::{evaluate_faqai, evaluate_faqai_boolean};
    pub use crate::relaxed::{analyze_disjunction, optimal_relaxed_decomposition, FaqAiAnalysis};
}
