//! One indexed pass over an app's package tree, shared by both detectors.
//!
//! Both detectors score *every* package prefix of an app. Computed per
//! prefix from the raw dex ([`crate::detect::fingerprint_subtree`],
//! [`spector_dex::subtree_profile`]), each prefix re-walks every method
//! and re-renders its package string, so an app costs
//! `O(prefixes × methods)`. [`PackageIndex`] walks the method table once:
//! it interns packages and classes, computes every prefix-independent
//! per-method fact, and lists each prefix's member methods. A prefix's
//! exact fingerprint and structural profile are then rebuilt from its
//! members alone, bit-identical to the per-prefix reference functions.

use std::collections::{BTreeMap, HashMap};

use spector_dex::features::{
    degree_feature, opcode_feature, profile_total, shape_of, signature_feature,
    subtree_total_features, StructuralProfile,
};
use spector_dex::model::{DexFile, MethodRef};

use crate::detect::{exact_tail, hash_features, LibraryFingerprint};

/// Per-app package index: every package prefix with its member methods,
/// plus the per-method facts both detectors need.
#[derive(Debug)]
pub struct PackageIndex {
    /// Every package prefix (each dotted level of every defined
    /// package), sorted by name.
    prefixes: Vec<Prefix>,
    /// Distinct packages: dotted name and its number of `.` separators.
    packages: Vec<(String, u64)>,
    /// Per method, in method-table order.
    methods: Vec<MethodFacts>,
}

/// One package prefix of the app.
#[derive(Debug)]
pub(crate) struct Prefix {
    pub(crate) name: String,
    /// Number of `.` separators in `name`.
    dots: u64,
    /// Methods whose package is `name` or lies beneath it.
    members: Vec<u32>,
    /// Byte length of the exact-fingerprint stream: every member's
    /// feature string plus its `\n` terminator.
    pub(crate) stream_len: usize,
}

/// Prefix-independent facts about one method, computed once.
#[derive(Debug)]
struct MethodFacts {
    package: u32,
    class: u32,
    /// `|class|method|descriptor|opcodes`: the exact feature minus the
    /// prefix-relative package path.
    tail: String,
    /// Descriptor shape class.
    shape: String,
    /// Opcode-histogram feature hash.
    opcode: u64,
    /// Distinct in-range `Internal` invoke targets.
    targets: Vec<u32>,
}

impl PackageIndex {
    /// Indexes `dex` in one pass over its method table.
    pub fn build(dex: &DexFile) -> Self {
        let method_count = dex.methods.len();
        let mut package_ids: HashMap<String, u32> = HashMap::new();
        let mut packages: Vec<(String, u64)> = Vec::new();
        let mut package_methods: Vec<Vec<u32>> = Vec::new();
        let mut class_ids: HashMap<String, u32> = HashMap::new();
        let mut methods = Vec::with_capacity(method_count);
        for (i, m) in dex.methods.iter().enumerate() {
            let name = m.sig.package();
            let package = match package_ids.get(&name) {
                Some(&id) => id,
                None => {
                    let id = packages.len() as u32;
                    let dots = name.bytes().filter(|&b| b == b'.').count() as u64;
                    package_ids.insert(name.clone(), id);
                    packages.push((name, dots));
                    package_methods.push(Vec::new());
                    id
                }
            };
            package_methods[package as usize].push(i as u32);
            let next_class = class_ids.len() as u32;
            let class = *class_ids.entry(m.sig.dotted_class()).or_insert(next_class);
            let mut targets: Vec<u32> = m
                .code
                .invokes()
                .filter_map(|invoke| match invoke {
                    MethodRef::Internal(t) if (*t as usize) < method_count => Some(*t),
                    _ => None,
                })
                .collect();
            targets.sort_unstable();
            targets.dedup();
            let shape = shape_of(m.sig.descriptor());
            methods.push(MethodFacts {
                package,
                class,
                tail: exact_tail(m),
                opcode: opcode_feature(m, &shape),
                shape,
                targets,
            });
        }

        // A package's prefixes are its cuts at every `.` plus itself.
        // Cutting at separators (never comparing string ranges) keeps
        // `com.foo` apart from `com.foobar`, `com.foo-x` and `com.foo$x`.
        let mut prefix_packages: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for (id, (name, _)) in packages.iter().enumerate() {
            if name.is_empty() {
                continue;
            }
            let cuts = name.match_indices('.').map(|(at, _)| at);
            for end in cuts.chain([name.len()]) {
                prefix_packages
                    .entry(&name[..end])
                    .or_default()
                    .push(id as u32);
            }
        }
        // The default package belongs only to the empty prefix, which
        // exists only when some package starts with a `.`.
        if let (Some(&id), Some(list)) = (package_ids.get(""), prefix_packages.get_mut("")) {
            list.push(id);
        }

        let prefixes = prefix_packages
            .into_iter()
            .map(|(name, ids)| {
                let members: Vec<u32> = ids
                    .iter()
                    .flat_map(|&id| package_methods[id as usize].iter().copied())
                    .collect();
                let stream_len = members
                    .iter()
                    .map(|&m| {
                        let facts = &methods[m as usize];
                        let package = &packages[facts.package as usize].0;
                        package.len() - name.len() + facts.tail.len() + 1
                    })
                    .sum();
                Prefix {
                    name: name.to_owned(),
                    dots: name.bytes().filter(|&b| b == b'.').count() as u64,
                    members,
                    stream_len,
                }
            })
            .collect();
        PackageIndex {
            prefixes,
            packages,
            methods,
        }
    }

    /// Every prefix, sorted by name.
    pub(crate) fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The exact fingerprint of `prefix`'s subtree; equals
    /// [`crate::detect::fingerprint_subtree`] on the indexed dex.
    pub(crate) fn fingerprint(&self, prefix: &Prefix) -> LibraryFingerprint {
        let mut features: Vec<String> = prefix
            .members
            .iter()
            .map(|&m| {
                let facts = &self.methods[m as usize];
                let relative = &self.packages[facts.package as usize].0[prefix.name.len()..];
                let mut feature = String::with_capacity(relative.len() + facts.tail.len());
                feature.push_str(relative);
                feature.push_str(&facts.tail);
                feature
            })
            .collect();
        hash_features(&mut features)
    }

    /// The structural profiles of every prefix whose profile cardinality
    /// `wanted` accepts, in prefix order; each equals
    /// [`spector_dex::subtree_profile`] on the indexed dex.
    pub(crate) fn profiles<'a>(
        &'a self,
        wanted: impl Fn(u64) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a Prefix, StructuralProfile)> + 'a {
        let mut graph = SubtreeGraph::new(self.methods.len());
        self.prefixes
            .iter()
            .filter(move |prefix| wanted(profile_total(prefix.members.len())))
            .map(move |prefix| (prefix, self.profile(prefix, &mut graph)))
    }

    fn profile(&self, prefix: &Prefix, graph: &mut SubtreeGraph) -> StructuralProfile {
        let members = &prefix.members;
        let mut hashes = Vec::with_capacity(profile_total(members.len()) as usize);
        for &m in members {
            let facts = &self.methods[m as usize];
            let depth = self.packages[facts.package as usize].1 - prefix.dots;
            hashes.push(signature_feature(depth, &facts.shape));
            hashes.push(facts.opcode);
        }
        let cross_class_edges = graph.load(members, &self.methods);
        for &m in members {
            let (out_degree, in_degree) = graph.degrees(m);
            hashes.push(degree_feature(out_degree, in_degree));
        }
        if !members.is_empty() {
            hashes.extend(subtree_total_features(cross_class_edges, members.len()));
        }
        StructuralProfile::from_hashes(hashes)
    }
}

/// Reusable scratch for one subtree's invoke graph: membership is a
/// generation stamp, so switching to the next prefix touches only that
/// prefix's members instead of clearing per-method arrays.
struct SubtreeGraph {
    generation: u32,
    stamp: Vec<u32>,
    out_degree: Vec<u64>,
    in_degree: Vec<u64>,
}

impl SubtreeGraph {
    fn new(methods: usize) -> Self {
        SubtreeGraph {
            generation: 0,
            stamp: vec![0; methods],
            out_degree: vec![0; methods],
            in_degree: vec![0; methods],
        }
    }

    /// Loads the graph induced by `members` and returns its cross-class
    /// edge count.
    fn load(&mut self, members: &[u32], methods: &[MethodFacts]) -> u64 {
        self.generation += 1;
        for &m in members {
            let m = m as usize;
            self.stamp[m] = self.generation;
            self.out_degree[m] = 0;
            self.in_degree[m] = 0;
        }
        let mut cross_class_edges = 0;
        for &m in members {
            let caller = &methods[m as usize];
            for &t in &caller.targets {
                if self.stamp[t as usize] == self.generation {
                    self.out_degree[m as usize] += 1;
                    self.in_degree[t as usize] += 1;
                    if caller.class != methods[t as usize].class {
                        cross_class_edges += 1;
                    }
                }
            }
        }
        cross_class_edges
    }

    fn degrees(&self, method: u32) -> (u64, u64) {
        let m = method as usize;
        (self.out_degree[m], self.in_degree[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{fingerprint_subtree, package_prefixes};
    use spector_dex::model::{CodeItem, Instruction, MethodDef};
    use spector_dex::sig::MethodSig;
    use spector_dex::subtree_profile;

    fn method(package: &str, class: &str, targets: &[u32]) -> MethodDef {
        let mut instructions: Vec<Instruction> = targets
            .iter()
            .map(|&t| Instruction::Invoke(MethodRef::Internal(t)))
            .collect();
        instructions.push(Instruction::Return);
        MethodDef {
            sig: MethodSig::new(package, class, "m", "(I)V"),
            code: CodeItem { instructions },
        }
    }

    #[test]
    fn prefixes_and_subtrees_match_the_reference_functions() {
        let dex = DexFile {
            methods: vec![
                method("com.foo", "A", &[1, 1, 2, 99]),
                method("com.foo.net", "B", &[0]),
                method("com.foobar", "A", &[0]),
                method("com.foo-x", "C", &[3]),
                method("com.foo$x", "D", &[]),
                method("", "Top", &[0]),
                method(".lead", "E", &[5]),
            ],
            classes: vec![],
        };
        let index = PackageIndex::build(&dex);
        let names: Vec<&str> = index.prefixes().iter().map(|p| p.name.as_str()).collect();
        let reference: Vec<String> = package_prefixes(&dex).into_iter().collect();
        assert_eq!(names, reference);
        let mut graph = SubtreeGraph::new(dex.methods.len());
        for prefix in index.prefixes() {
            assert_eq!(
                Some(index.fingerprint(prefix)),
                fingerprint_subtree(&dex, &prefix.name),
                "fingerprint of {:?}",
                prefix.name
            );
            assert_eq!(
                index.profile(prefix, &mut graph),
                subtree_profile(&dex, &prefix.name),
                "profile of {:?}",
                prefix.name
            );
        }
    }
}
