//! Attack proof-of-concepts for the Perspective reproduction.
//!
//! Implements the paper's security evaluation (Chapter 8): *active*
//! transient execution attacks (the attacker's own kernel thread leaking
//! foreign data — [`active`]) and *passive* attacks (the victim's kernel
//! thread hijacked into a leak gadget — [`passive`]), run against every
//! evaluated defense scheme on the simulated core via the shared
//! [`lab::AttackLab`] harness: the measurement protocol's own
//! [`SimInstance`](persp_workloads::SimInstance), built from a shared
//! kernel image, with a victim as its second tenant.
//!
//! Each PoC has one entry point taking the scheme, the image, the
//! secret, the enforcement under test ([`PerspectiveConfig`]) and the
//! base core ([`CoreConfig`]); [`attack_succeeds`] turns any of them into
//! a differential verdict over two secrets.
//!
//! [`PerspectiveConfig`]: perspective::policy::PerspectiveConfig
//! [`CoreConfig`]: persp_uarch::config::CoreConfig
//!
//! The attacks exercise the real microarchitectural mechanisms end to
//! end: branch mistraining through the shared TAGE/BTB/RSB state,
//! transient wrong-path loads that fill the caches before squash, and a
//! flush+reload receiver timed with in-µISA `rdtsc` loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod bhi;
pub mod ebpf_attack;
pub mod lab;
pub mod passive;

pub use active::{run_active_attack, run_active_attack_sni, ActiveAttackReport};
pub use bhi::{plain_v2_fails_under_ibrs, run_bhi, BhiReport};
pub use ebpf_attack::{run_ebpf_attack, EbpfAttackReport};
pub use lab::{attack_succeeds, AttackLab, Scheme, SCHEMES};
pub use passive::{run_btb_hijack, run_retbleed, PassiveAttackReport};
