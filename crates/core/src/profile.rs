//! Textual ISV profiles — the deployment format of the pliable interface.
//!
//! §5.4 envisions ISVs "built offline and later provided to the OS at
//! application startup", installable by system administrators across
//! fleets — the same operational model as seccomp policy files (§2.3).
//! This module defines that artifact: a line-oriented, human-auditable
//! profile that either *names the kernel functions* of a concrete view or
//! *names the syscalls* from which a static view is generated at load
//! time (so one profile works across kernel builds).
//!
//! ```text
//! # perspective-isv v1
//! kind dynamic
//! func sys_read
//! func read_impl_001
//! ```
//!
//! ```text
//! # perspective-isv v1
//! kind static
//! syscall read
//! syscall write
//! ```

use crate::isv::{Isv, IsvKind};
use persp_kernel::callgraph::{CallGraph, FuncId, FuncSet};
use persp_kernel::syscalls::Sysno;
use std::collections::HashMap;
use std::fmt;

/// Magic first line of every profile.
const HEADER: &str = "# perspective-isv v1";

/// Errors loading a profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The file does not start with the v1 header.
    BadHeader,
    /// A line was not a recognized directive.
    BadDirective {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The `kind` directive is missing or invalid.
    BadKind,
    /// A named kernel function does not exist in this kernel build.
    UnknownFunction {
        /// The name that failed to resolve.
        name: String,
    },
    /// A named syscall does not exist.
    UnknownSyscall {
        /// The name that failed to resolve.
        name: String,
    },
    /// A function-list profile with no functions (almost certainly a
    /// mistake — it would fence the entire kernel).
    Empty,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::BadHeader => write!(f, "missing '# perspective-isv v1' header"),
            ProfileError::BadDirective { line, text } => {
                write!(f, "unrecognized directive on line {line}: {text:?}")
            }
            ProfileError::BadKind => write!(f, "missing or invalid 'kind' directive"),
            ProfileError::UnknownFunction { name } => {
                write!(f, "kernel function {name:?} not found in this build")
            }
            ProfileError::UnknownSyscall { name } => write!(f, "unknown syscall {name:?}"),
            ProfileError::Empty => write!(f, "profile names no functions"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Serialize a concrete view to the function-list profile format.
/// Function *names* are used (stable across identically-seeded kernel
/// builds and auditable by humans).
pub fn to_profile_string(isv: &Isv, graph: &CallGraph) -> String {
    let mut names: Vec<&str> = isv
        .funcs()
        .iter()
        .map(|f| graph.func(f).name.as_str())
        .collect();
    names.sort_unstable();
    let kind = match isv.kind() {
        IsvKind::Static => "static-resolved",
        IsvKind::Dynamic => "dynamic",
        IsvKind::Hardened => "hardened",
        IsvKind::Unrestricted => "unrestricted",
    };
    let mut out = String::with_capacity(16 * names.len() + 64);
    out.push_str(HEADER);
    out.push('\n');
    out.push_str("kind ");
    out.push_str(kind);
    out.push('\n');
    for n in names {
        out.push_str("func ");
        out.push_str(n);
        out.push('\n');
    }
    out
}

/// Serialize a syscall-set profile (static views generated at load time).
pub fn syscall_profile_string(syscalls: &[Sysno]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str("kind static\n");
    for s in syscalls {
        out.push_str("syscall ");
        out.push_str(s.name());
        out.push('\n');
    }
    out
}

/// Load a profile against a kernel build.
///
/// # Errors
///
/// Returns a [`ProfileError`] for malformed input or names that do not
/// resolve in `graph`.
pub fn from_profile_string(text: &str, graph: &CallGraph) -> Result<Isv, ProfileError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => return Err(ProfileError::BadHeader),
    }

    let mut kind: Option<&str> = None;
    let mut funcs: Vec<String> = Vec::new();
    let mut syscalls: Vec<Sysno> = Vec::new();
    for (i, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(' ') {
            Some(("kind", k)) => kind = Some(k.trim()),
            Some(("func", name)) => funcs.push(name.trim().to_string()),
            Some(("syscall", name)) => {
                let name = name.trim();
                let sys = Sysno::ALL
                    .iter()
                    .copied()
                    .find(|s| s.name() == name)
                    .ok_or_else(|| ProfileError::UnknownSyscall {
                        name: name.to_string(),
                    })?;
                syscalls.push(sys);
            }
            _ => {
                return Err(ProfileError::BadDirective {
                    line: i + 1,
                    text: line.to_string(),
                })
            }
        }
    }

    let kind = match kind {
        Some("dynamic") => IsvKind::Dynamic,
        Some("hardened") => IsvKind::Hardened,
        Some("static") | Some("static-resolved") => IsvKind::Static,
        _ => return Err(ProfileError::BadKind),
    };

    if !syscalls.is_empty() {
        // Syscall-set form: resolve against this kernel build.
        return Ok(Isv::static_for(graph, &syscalls));
    }
    if funcs.is_empty() {
        return Err(ProfileError::Empty);
    }

    // Function-list form: resolve names.
    let by_name: HashMap<&str, FuncId> = graph
        .funcs
        .iter()
        .map(|f| (f.name.as_str(), f.id))
        .collect();
    let mut set = FuncSet::with_capacity(graph.len());
    for name in funcs {
        match by_name.get(name.as_str()) {
            Some(&id) => {
                set.insert(id);
            }
            None => return Err(ProfileError::UnknownFunction { name }),
        }
    }
    Ok(Isv::from_func_set(graph, set, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::body::emit_kernel;
    use persp_kernel::callgraph::{FuncKind, KernelConfig};

    fn graph() -> CallGraph {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        emit_kernel(&mut g);
        g
    }

    #[test]
    fn function_list_round_trip() {
        let g = graph();
        let isv = Isv::static_for(&g, &[Sysno::Read, Sysno::Getpid]);
        let text = to_profile_string(&isv, &g);
        let loaded = from_profile_string(&text, &g).expect("round trip");
        assert_eq!(loaded.funcs(), isv.funcs());
        for f in &g.funcs {
            assert_eq!(loaded.contains_va(f.entry_va), isv.contains_va(f.entry_va));
        }
    }

    #[test]
    fn syscall_form_generates_at_load_time() {
        let g = graph();
        let text = syscall_profile_string(&[Sysno::Read, Sysno::Write]);
        let loaded = from_profile_string(&text, &g).expect("loads");
        let direct = Isv::static_for(&g, &[Sysno::Read, Sysno::Write]);
        assert_eq!(loaded.funcs(), direct.funcs());
    }

    #[test]
    fn hardened_views_keep_their_kind() {
        let g = graph();
        let mut isv = Isv::static_for(&g, &[Sysno::Read]);
        // A helper of sys_read's own pool, not its entry.
        let helper = |f: &FuncId| g.func(*f).kind == FuncKind::SyscallImpl(Sysno::Read);
        let victim = isv
            .funcs()
            .iter()
            .find(helper)
            .expect("sys_read has helpers");
        assert!(isv.exclude_function(&g, victim));
        let text = to_profile_string(&isv, &g);
        assert!(text.contains("kind hardened"));
        let loaded = from_profile_string(&text, &g).expect("loads");
        assert_eq!(loaded.kind(), IsvKind::Hardened);
        assert!(!loaded.contains_func(victim));
    }

    #[test]
    fn header_is_mandatory() {
        let g = graph();
        assert!(matches!(
            from_profile_string("kind dynamic\n", &g),
            Err(ProfileError::BadHeader)
        ));
    }

    #[test]
    fn unknown_names_are_rejected() {
        let g = graph();
        let text = format!("{HEADER}\nkind dynamic\nfunc not_a_real_function\n");
        assert!(matches!(
            from_profile_string(&text, &g),
            Err(ProfileError::UnknownFunction { .. })
        ));
        let text = format!("{HEADER}\nkind static\nsyscall not_a_syscall\n");
        assert!(matches!(
            from_profile_string(&text, &g),
            Err(ProfileError::UnknownSyscall { .. })
        ));
    }

    #[test]
    fn malformed_directives_are_rejected_with_line_numbers() {
        let g = graph();
        let text = format!("{HEADER}\nkind dynamic\nfunc sys_read\ngarbage-line\n");
        match from_profile_string(&text, &g) {
            Err(ProfileError::BadDirective { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected BadDirective, got {other:?}"),
        }
    }

    #[test]
    fn empty_function_lists_are_rejected() {
        let g = graph();
        let text = format!("{HEADER}\nkind dynamic\n");
        assert!(matches!(
            from_profile_string(&text, &g),
            Err(ProfileError::Empty)
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = graph();
        let text = format!("{HEADER}\n# a note\n\nkind static\n# another\nsyscall getpid\n");
        let loaded = from_profile_string(&text, &g).expect("loads");
        assert!(loaded.num_funcs() > 0);
    }
}
