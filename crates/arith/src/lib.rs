//! Dependency-free exact arithmetic for model counting.
//!
//! The SDD evaluation engine (`sdd::FrozenSdd::evaluate`) is generic over a
//! commutative [`Semiring`]; this crate supplies the trait and the three
//! carriers the workspace instantiates it at:
//!
//! * [`BigUint`] — arbitrary-precision naturals for **exact #SAT**. A
//!   200-variable formula can have ≫ `u128::MAX` models; the former `u128`
//!   counting path overflowed silently past 2¹²⁸.
//! * [`Rational`] — arbitrary-precision signed rationals for **exact
//!   weighted model counting** (WMC) and query probability, replacing lossy
//!   `f64` accumulation. Every `f64` is a dyadic rational, so
//!   [`Rational::from_f64`] is exact.
//! * `f64` — the fast approximate path, unchanged semantics.
//!
//! Beyond the three counting carriers, the semiring zoo holds the serving
//! layer's carriers: [`LogF64`] (log-space sum-product — WMC that cannot
//! underflow at 10k+ variables) and [`MaxPlus`] (the tropical MPE
//! semiring). Both run through the same generic engine.
//!
//! Like `crates/compat`, everything here is hand-rolled: the build has no
//! network access, so no registry crates (`num-bigint`, …) are available.
//! The implementations favor clarity over asymptotics (schoolbook
//! multiplication, shift-and-subtract division); the operands produced by
//! model counting on the paper's circuit families are at most a few
//! thousand bits, far below where subquadratic algorithms pay off.

pub mod biguint;
pub mod rational;
pub mod semiring;

pub use biguint::BigUint;
pub use rational::{ParseRationalError, Rational};
pub use semiring::{log_sum_exp, LaneSemiring, LogF64, MaxPlus, Nat, Rat, Semiring, F64};
