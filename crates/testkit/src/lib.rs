//! # skipper-testkit — test-only references, used as a dev-dependency
//!
//! Each mirrors the module path of the code it checks: [`sched::naive`]
//! (the full-rescan queue), [`trace`] (the stall split), [`ops::reference`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops {
    //! Query execution references.
    pub mod reference;
}
pub mod sched {
    //! Request-queue references.
    pub mod naive;
}
pub mod trace;

/// FNV-1a over the `{:?}` rendering of `value`, streamed through a
/// `fmt::Write` sink: no string is built and no per-field code is
/// needed, so a field added to `RunResult` is covered the day it lands.
/// Two runs with equal digests printed the same bytes.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut sink = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut sink, format_args!("{value:?}")).expect("Debug output is infallible");
    sink.0
}
