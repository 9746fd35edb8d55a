//! Processing-element (PE) framework for HALO.
//!
//! HALO's defining architectural move (§IV) is decomposing BCI tasks into
//! *kernels* and packaging each kernel as a hardware processing element:
//! "each PE operates in its own clock domain at the minimum frequency to
//! sustain target performance" and carries "processing logic, private
//! memory, and an adapter to communicate over the interconnect."
//!
//! This crate models that world:
//!
//! * [`Token`] / [`InterfaceKind`] — the typed streams PEs exchange ("the
//!   interconnect sends messages in streams of bytes, bits, and tokens";
//!   §IV-D). Pipeline construction validates that a producer's output
//!   interface matches its consumer's input interface.
//! * [`ProcessingElement`] — the PE contract: typed input ports, an output
//!   stream drained through a FIFO adapter, private-memory accounting, and
//!   an end-of-stream flush.
//! * [`ClockDomain`] — per-PE pausable-clock model; frequency is computed as
//!   the minimum that sustains the offered token rate.
//! * [`pes`] — one wrapper per Table III kernel (LZ, LIC, MA, RC, DWT, NEO,
//!   FFT, XCOR, BBF, SVM, THR, GATE, AES) plus the standalone interleaver
//!   that time-multiplexes channel-scaled PEs (§IV).
//!
//! The wrappers delegate the math to [`halo_kernels`] so the *same* kernel
//! implementation backs both the monolithic codecs and the decomposed PE
//! pipelines — letting tests assert that decomposition "does not change
//! algorithmic functionality" (§IV-A), bit for bit.

pub mod clock;
pub mod error;
pub mod fifo;
pub mod pes;
pub mod token;
pub mod traits;

pub use clock::ClockDomain;
pub use error::PeError;
pub use fifo::Fifo;
pub use token::{InterfaceKind, Token};
pub use traits::{Delivery, PeKind, ProcessingElement};
