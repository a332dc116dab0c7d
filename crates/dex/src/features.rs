//! Structural, rename-invariant feature extraction over dex subtrees.
//!
//! The exact fingerprint in `spector-libradar` hashes identifier strings,
//! so it dies the moment an obfuscator renames a package or mangles a
//! class name. This module computes the evidence that *survives*
//! obfuscation: per-package-subtree profiles built only from quantities an
//! identifier-renaming obfuscator cannot change —
//!
//! * **abstracted method signatures**: the type descriptor reduced to
//!   shape classes (every object type collapses to `L`, arrays keep their
//!   `[` depth, primitives keep their letter) combined with the method's
//!   package depth *relative to the subtree root*,
//! * **per-method opcode histograms** over the semantic instruction set
//!   (invokes split internal/external, async schedules, network ops,
//!   returns) — `Nop`/`Const` filler is deliberately excluded so junk
//!   no-op injection is invisible,
//! * **invoke-graph features**: per-method in/out-degree over the
//!   intra-subtree call graph, plus subtree totals for cross-class edges
//!   and method count (log2-bucketed so a handful of filler methods does
//!   not move them).
//!
//! Each feature is hashed to a `u64` and the profile is the sorted
//! multiset of those hashes. Profiles are deterministic: same dex, same
//! prefix → same profile, independent of method-table order.

use serde::{Deserialize, Serialize};

use crate::model::{DexFile, Instruction, MethodDef, MethodRef};

/// A structural profile of one package subtree: a sorted multiset of
/// hashed features.
///
/// Two subtrees with equal profiles are structurally indistinguishable to
/// this tier — which is the point: a library and its renamed/mangled copy
/// produce identical profiles.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StructuralProfile {
    /// `(feature hash, multiplicity)` pairs, sorted by hash.
    pub features: Vec<(u64, u32)>,
}

impl StructuralProfile {
    /// Total feature multiplicity (the multiset cardinality).
    pub fn total(&self) -> u64 {
        self.features.iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// Number of *distinct* feature hashes.
    pub fn distinct(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when the subtree produced no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a over tagged feature components.
struct FeatureHasher(u64);

impl FeatureHasher {
    fn new(tag: &str) -> Self {
        let mut h = FeatureHasher(FNV_OFFSET);
        h.bytes(tag.as_bytes());
        h
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Reduces a `(params)ret` descriptor to its shape class: object types
/// collapse to `L`, arrays keep their `[` markers, primitive letters and
/// the `()`/`V` structure survive unchanged.
///
/// Obfuscators rename *identifiers*; the framework types referenced by
/// descriptors, and a descriptor's arity/primitive structure, are fixed.
/// Collapsing objects to `L` keeps the shape stable even for tools that
/// rewrite app-local types in descriptors.
///
/// # Examples
///
/// ```
/// assert_eq!(spector_dex::features::shape_of("(Landroid/os/Bundle;I)V"), "(LI)V");
/// assert_eq!(
///     spector_dex::features::shape_of("([Ljava/lang/Object;)Ljava/lang/Object;"),
///     "([L)L"
/// );
/// ```
pub fn shape_of(descriptor: &str) -> String {
    let mut out = String::with_capacity(descriptor.len());
    let bytes = descriptor.as_bytes();
    let mut idx = 0;
    while idx < bytes.len() {
        match bytes[idx] {
            b'L' => {
                out.push('L');
                while idx < bytes.len() && bytes[idx] != b';' {
                    idx += 1;
                }
                idx += 1; // past ';'
            }
            other => {
                out.push(other as char);
                idx += 1;
            }
        }
    }
    out
}

/// Whether dotted package `pkg` lies inside the subtree rooted at
/// `prefix` (the prefix itself included). Component-aligned: `com.foo`
/// does not contain `com.foobar`.
fn in_subtree(pkg: &str, prefix: &str) -> bool {
    pkg == prefix || (pkg.starts_with(prefix) && pkg.as_bytes().get(prefix.len()) == Some(&b'.'))
}

/// Dot-component depth of `pkg` below `prefix` (0 when equal).
fn depth_below(pkg: &str, prefix: &str) -> u64 {
    if pkg.len() <= prefix.len() {
        return 0;
    }
    pkg[prefix.len()..].bytes().filter(|&b| b == b'.').count() as u64
}

/// log2-style bucket for subtree totals: 0, 1, 2, 3-4, 5-8, 9-16, ...
fn log2_bucket(n: u64) -> u64 {
    match n {
        0 => 0,
        _ => 64 - (n - 1).leading_zeros() as u64 + 1,
    }
}

/// Multiset cardinality of the profile of a `members`-method subtree:
/// three per-method features (`sig`, `opc`, `deg`) plus the two
/// subtree totals. It depends on the member count alone, so a caller can
/// bound a profile's similarity before building it.
pub fn profile_total(members: usize) -> u64 {
    match members {
        0 => 0,
        n => 3 * n as u64 + 2,
    }
}

/// The abstracted-signature feature: a method's package depth below the
/// subtree root × its descriptor shape (see [`shape_of`]).
pub fn signature_feature(depth: u64, shape: &str) -> u64 {
    let mut h = FeatureHasher::new("sig");
    h.num(depth);
    h.bytes(shape.as_bytes());
    h.finish()
}

/// The opcode-histogram feature of one method over the semantic
/// instruction set; `shape` is [`shape_of`] its descriptor. Nop/Const
/// are junk-injection targets and deliberately uncounted. Independent of
/// the subtree root, so it can be computed once per method.
pub fn opcode_feature(method: &MethodDef, shape: &str) -> u64 {
    let (mut inv_int, mut inv_ext, mut asyncs, mut nets, mut rets) = (0u64, 0, 0, 0, 0);
    for inst in &method.code.instructions {
        match inst {
            Instruction::Invoke(MethodRef::Internal(_)) => inv_int += 1,
            Instruction::Invoke(MethodRef::External(_)) => inv_ext += 1,
            Instruction::InvokeAsync { .. } => asyncs += 1,
            Instruction::Network(_) => nets += 1,
            Instruction::Return => rets += 1,
            Instruction::Nop | Instruction::Const(_) => {}
        }
    }
    let mut h = FeatureHasher::new("opc");
    h.bytes(shape.as_bytes());
    for v in [inv_int, inv_ext, asyncs, nets, rets] {
        h.num(v);
    }
    h.finish()
}

/// The invoke-graph degree feature of one method: its out- and in-degree
/// over the intra-subtree call graph, each capped at 3.
pub fn degree_feature(out_degree: u64, in_degree: u64) -> u64 {
    let mut h = FeatureHasher::new("deg");
    h.num(out_degree.min(3));
    h.num(in_degree.min(3));
    h.finish()
}

/// The two subtree-level features of a non-empty subtree: cross-class
/// edge count and method count, log2-bucketed.
pub fn subtree_total_features(cross_class_edges: u64, members: usize) -> [u64; 2] {
    let mut xce = FeatureHasher::new("xce");
    xce.num(log2_bucket(cross_class_edges));
    let mut cnt = FeatureHasher::new("cnt");
    cnt.num(log2_bucket(members as u64));
    [xce.finish(), cnt.finish()]
}

impl StructuralProfile {
    /// Collapses a bag of feature hashes into the sorted multiset.
    pub fn from_hashes(mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        let mut features: Vec<(u64, u32)> = Vec::with_capacity(hashes.len());
        for h in hashes {
            match features.last_mut() {
                Some((last, c)) if *last == h => *c += 1,
                _ => features.push((h, 1)),
            }
        }
        StructuralProfile { features }
    }
}

/// Computes the structural profile of the package subtree rooted at
/// `prefix`.
///
/// Deterministic and invariant under: package renaming (features only see
/// depth relative to the root), class/method identifier mangling (no
/// identifier reaches the hasher; class identity is positional), method
/// reordering (per-method features are order-free, graph features use
/// method identity, and the final multiset is sorted), and `Nop`/`Const`
/// junk injection (filler opcodes are excluded from histograms).
///
/// This walks every method of the dex; scanning every prefix of an app
/// this way is quadratic. `spector_libradar::PackageIndex` builds the
/// same profiles from one pass over the app.
pub fn subtree_profile(dex: &DexFile, prefix: &str) -> StructuralProfile {
    // Member set. Class identity is *positional*: methods of the same
    // class share a dotted_class string; which string it is never
    // reaches a hash.
    let mut member = vec![false; dex.methods.len()];
    let mut hashes: Vec<u64> = Vec::new();
    let mut members: Vec<u32> = Vec::new();
    for (i, m) in dex.methods.iter().enumerate() {
        if in_subtree(&m.sig.package(), prefix) {
            member[i] = true;
            members.push(i as u32);
        }
    }

    for &i in &members {
        let m = &dex.methods[i as usize];
        let shape = shape_of(m.sig.descriptor());
        hashes.push(signature_feature(
            depth_below(&m.sig.package(), prefix),
            &shape,
        ));
        hashes.push(opcode_feature(m, &shape));
    }

    // Intra-subtree invoke graph: distinct (caller, callee) edges where
    // both endpoints are members. Degrees are identity-based, so method
    // reordering (with reference fixup) cannot change them.
    let mut out_deg = vec![0u64; dex.methods.len()];
    let mut in_deg = vec![0u64; dex.methods.len()];
    let mut cross_class_edges = 0u64;
    for &i in &members {
        let m = &dex.methods[i as usize];
        let mut seen: Vec<u32> = Vec::new();
        for invoke in m.code.invokes() {
            if let MethodRef::Internal(t) = invoke {
                let t = *t;
                if (t as usize) < member.len() && member[t as usize] && !seen.contains(&t) {
                    seen.push(t);
                    out_deg[i as usize] += 1;
                    in_deg[t as usize] += 1;
                    if dex.methods[i as usize].sig.dotted_class()
                        != dex.methods[t as usize].sig.dotted_class()
                    {
                        cross_class_edges += 1;
                    }
                }
            }
        }
    }
    for &i in &members {
        hashes.push(degree_feature(out_deg[i as usize], in_deg[i as usize]));
    }

    if !members.is_empty() {
        hashes.extend(subtree_total_features(cross_class_edges, members.len()));
    }
    StructuralProfile::from_hashes(hashes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassDef, CodeItem};
    use crate::sig::MethodSig;

    fn lib_dex(root: &str, class_a: &str, class_b: &str, m0: &str, m1: &str) -> DexFile {
        let methods = vec![
            MethodDef {
                sig: MethodSig::new(root, class_a, m0, "(Landroid/content/Context;)V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Const(1),
                        Instruction::Invoke(MethodRef::Internal(1)),
                        Instruction::Return,
                    ],
                },
            },
            MethodDef {
                sig: MethodSig::new(&format!("{root}.net"), class_b, m1, "()V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Network(crate::model::NetworkOp {
                            domain: "cdn.example.com".into(),
                            port: 443,
                            send_bytes: 10,
                            recv_bytes: 20,
                            connector: crate::model::Connector::AndroidOkHttp,
                            shape: crate::model::WireShape::Plain,
                        }),
                        Instruction::Return,
                    ],
                },
            },
        ];
        DexFile {
            methods,
            classes: vec![ClassDef {
                dotted_name: format!("{root}.{class_a}"),
                method_indices: vec![0],
            }],
        }
    }

    #[test]
    fn shape_collapses_objects_keeps_primitives() {
        assert_eq!(shape_of("()V"), "()V");
        assert_eq!(shape_of("(IJZ)D"), "(IJZ)D");
        assert_eq!(shape_of("(Landroid/os/Bundle;I)V"), "(LI)V");
        assert_eq!(shape_of("([[I[Ljava/lang/String;)L"), "([[I[L)L");
        assert_eq!(shape_of("([Ljava/lang/Object;)Ljava/lang/Object;"), "([L)L");
    }

    #[test]
    fn profile_is_invariant_under_rename_and_mangle() {
        let orig = lib_dex("com.unity3d.ads", "Sdk", "Fetcher", "init", "run");
        let renamed = lib_dex("qx.ab", "Sdk", "Fetcher", "init", "run");
        let mangled = lib_dex("qx.ab", "a", "b", "a", "a");
        let p = subtree_profile(&orig, "com.unity3d.ads");
        assert!(!p.is_empty());
        assert_eq!(p, subtree_profile(&renamed, "qx.ab"));
        assert_eq!(p, subtree_profile(&mangled, "qx.ab"));
    }

    #[test]
    fn profile_ignores_junk_filler_opcodes() {
        let clean = lib_dex("com.lib", "A", "B", "m", "n");
        let mut junked = clean.clone();
        for m in &mut junked.methods {
            let at = m.code.instructions.len() - 1;
            m.code.instructions.insert(at, Instruction::Nop);
            m.code.instructions.insert(at, Instruction::Const(99));
        }
        assert_eq!(
            subtree_profile(&clean, "com.lib"),
            subtree_profile(&junked, "com.lib")
        );
    }

    #[test]
    fn profile_is_invariant_under_method_reordering() {
        let dex = lib_dex("com.lib", "A", "B", "m", "n");
        let mut swapped = DexFile {
            methods: vec![dex.methods[1].clone(), dex.methods[0].clone()],
            classes: dex.classes.clone(),
        };
        // Fix up the internal reference 1 -> 0 after the swap.
        for m in &mut swapped.methods {
            for inst in &mut m.code.instructions {
                if let Instruction::Invoke(MethodRef::Internal(t)) = inst {
                    *t = 1 - *t;
                }
            }
        }
        swapped.classes[0].method_indices = vec![1];
        assert_eq!(
            subtree_profile(&dex, "com.lib"),
            subtree_profile(&swapped, "com.lib")
        );
    }

    #[test]
    fn distinct_structures_produce_distinct_profiles() {
        let a = lib_dex("com.lib", "A", "B", "m", "n");
        let mut b = a.clone();
        b.methods[0].code.instructions[1] = Instruction::Invoke(MethodRef::External(
            MethodSig::new("android.util", "Log", "d", "()V"),
        ));
        assert_ne!(
            subtree_profile(&a, "com.lib"),
            subtree_profile(&b, "com.lib")
        );
    }

    #[test]
    fn subtree_membership_is_component_aligned() {
        let dex = lib_dex("com.foobar", "A", "B", "m", "n");
        assert!(subtree_profile(&dex, "com.foo").is_empty());
        assert_eq!(subtree_profile(&dex, "com.foobar").total() as usize, {
            // 2 methods x (sig + opc + deg) + xce + cnt
            2 * 3 + 2
        });
    }

    #[test]
    fn profile_total_counts_every_pushed_feature() {
        let dex = lib_dex("com.lib", "A", "B", "m", "n");
        for prefix in ["com", "com.lib", "com.lib.net", "org"] {
            let members = dex
                .methods
                .iter()
                .filter(|m| in_subtree(&m.sig.package(), prefix))
                .count();
            assert_eq!(
                subtree_profile(&dex, prefix).total(),
                profile_total(members)
            );
        }
    }

    #[test]
    fn log2_buckets_are_monotone_and_coarse() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 3);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(5), 4);
        assert_eq!(log2_bucket(8), 4);
        assert_eq!(log2_bucket(9), 5);
    }
}
