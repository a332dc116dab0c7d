//! The third-party library universe.
//!
//! Each template describes one real-world library (names match the ones
//! the paper's Figure 3 and our own experience with LibRadar's output
//! surface): its package, category, AnT/common-list membership, and a
//! relative popularity weight. A template *instantiates* into an app as
//! a deterministic set of methods — identical structure in every app,
//! which is what lets the LibRadar-style fingerprint recognize it — with
//! the app-specific network operands (domains, byte counts) filled in.
//!
//! Instance layout (per template):
//!
//! * an **init entry** (`…Sdk.init`) the app calls from
//!   `Application.onCreate`; it schedules the two background fetchers
//!   asynchronously (ad SDKs load their configs and creatives off the
//!   main thread — which is also what makes the traffic attributable to
//!   the *library* rather than the caller);
//! * two **background fetchers** each performing one [`NetworkOp`];
//! * a **refresh entry** reachable from UI handlers, scheduling a small
//!   refresh fetch (banner rotation);
//! * deterministic **filler methods** giving the library realistic bulk.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spector_dex::model::{
    CodeItem, Connector, DexFile, Dispatcher, Instruction, MethodDef, MethodRef, NetworkOp,
};
use spector_dex::sig::MethodSig;
use spector_libradar::{LibCategory, LibraryDb, LibraryLists, StructuralIndex};

/// One library in the universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraryTemplate {
    /// Canonical package prefix.
    pub package: &'static str,
    /// LibRadar category.
    pub category: LibCategory,
    /// Member of Li et al.'s advertisement/tracker list.
    pub is_ant: bool,
    /// Member of Li et al.'s common-libraries list.
    pub is_common: bool,
    /// Relative inclusion weight among templates of the same category.
    pub weight: f64,
}

macro_rules! lib {
    ($pkg:literal, $cat:ident, ant = $ant:literal, common = $common:literal, w = $w:literal) => {
        LibraryTemplate {
            package: $pkg,
            category: LibCategory::$cat,
            is_ant: $ant,
            is_common: $common,
            weight: $w,
        }
    };
}

/// The full template universe (~70 libraries).
pub const LIBRARY_TEMPLATES: &[LibraryTemplate] = &[
    // Advertisement networks (AnT).
    lib!(
        "com.unity3d.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 9.0
    ),
    lib!(
        "com.vungle.publisher",
        Advertisement,
        ant = true,
        common = false,
        w = 8.0
    ),
    lib!(
        "com.google.android.gms.internal.ads",
        Advertisement,
        ant = true,
        common = true,
        w = 10.0
    ),
    lib!(
        "com.chartboost.sdk",
        Advertisement,
        ant = true,
        common = false,
        w = 6.0
    ),
    lib!(
        "com.ironsource.sdk",
        Advertisement,
        ant = true,
        common = false,
        w = 6.0
    ),
    lib!(
        "com.applovin.impl.sdk",
        Advertisement,
        ant = true,
        common = false,
        w = 5.0
    ),
    lib!(
        "com.adcolony",
        Advertisement,
        ant = true,
        common = false,
        w = 4.0
    ),
    lib!(
        "com.facebook.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 6.0
    ),
    lib!(
        "com.mopub.mobileads",
        Advertisement,
        ant = true,
        common = false,
        w = 4.0
    ),
    lib!(
        "com.inmobi.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 3.0
    ),
    lib!(
        "com.millennialmedia",
        Advertisement,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.startapp.android",
        Advertisement,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.tapjoy",
        Advertisement,
        ant = true,
        common = false,
        w = 3.0
    ),
    lib!(
        "com.smaato.soma",
        Advertisement,
        ant = true,
        common = false,
        w = 1.5
    ),
    lib!(
        "com.amazon.device.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.flurry.android.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.heyzap.sdk",
        Advertisement,
        ant = true,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.fyber.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.appnext.ads",
        Advertisement,
        ant = true,
        common = false,
        w = 1.0
    ),
    lib!(
        "net.pubnative.library",
        Advertisement,
        ant = true,
        common = false,
        w = 1.0
    ),
    // Mobile analytics / trackers (AnT).
    lib!(
        "com.google.android.gms.analytics",
        MobileAnalytics,
        ant = true,
        common = true,
        w = 9.0
    ),
    lib!(
        "com.google.firebase.analytics",
        MobileAnalytics,
        ant = true,
        common = true,
        w = 8.0
    ),
    lib!(
        "com.crashlytics.android",
        MobileAnalytics,
        ant = true,
        common = true,
        w = 6.0
    ),
    lib!(
        "com.flurry.sdk",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 4.0
    ),
    lib!(
        "com.mixpanel.android",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.appsflyer",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 3.0
    ),
    lib!(
        "com.adjust.sdk",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.umeng.analytics",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.localytics.android",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.amplitude.api",
        MobileAnalytics,
        ant = true,
        common = false,
        w = 1.0
    ),
    // Development aid.
    lib!(
        "okhttp3.internal",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 10.0
    ),
    lib!(
        "com.squareup.okhttp",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 5.0
    ),
    lib!(
        "com.squareup.picasso",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 6.0
    ),
    lib!(
        "com.bumptech.glide",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 8.0
    ),
    lib!(
        "com.nostra13.universalimageloader",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 4.0
    ),
    lib!(
        "com.android.volley",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 6.0
    ),
    lib!(
        "retrofit2",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 5.0
    ),
    lib!(
        "com.loopj.android.http",
        DevelopmentAid,
        ant = false,
        common = true,
        w = 2.0
    ),
    lib!(
        "com.amazon.whispersync",
        DevelopmentAid,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.koushikdutta.ion",
        DevelopmentAid,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.octo.android.robospice",
        DevelopmentAid,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "bestdict.common",
        DevelopmentAid,
        ant = false,
        common = false,
        w = 1.0
    ),
    // Game engines.
    lib!(
        "com.unity3d.player",
        GameEngine,
        ant = false,
        common = false,
        w = 10.0
    ),
    lib!(
        "com.unity3d.services",
        GameEngine,
        ant = false,
        common = false,
        w = 5.0
    ),
    lib!(
        "com.gameloft",
        GameEngine,
        ant = false,
        common = false,
        w = 5.0
    ),
    lib!(
        "org.cocos2dx.lib",
        GameEngine,
        ant = false,
        common = false,
        w = 4.0
    ),
    lib!(
        "com.badlogic.gdx",
        GameEngine,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.ansca.corona",
        GameEngine,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.epicgames.ue4",
        GameEngine,
        ant = false,
        common = false,
        w = 1.0
    ),
    // Social networks.
    lib!(
        "com.facebook.android",
        SocialNetwork,
        ant = false,
        common = true,
        w = 6.0
    ),
    lib!(
        "com.twitter.sdk.android",
        SocialNetwork,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.vk.sdk",
        SocialNetwork,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.tencent.mm.opensdk",
        SocialNetwork,
        ant = false,
        common = false,
        w = 1.5
    ),
    lib!(
        "com.linkedin.platform",
        SocialNetwork,
        ant = false,
        common = false,
        w = 0.5
    ),
    // Payment.
    lib!(
        "com.paypal.android.sdk",
        Payment,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.braintreepayments.api",
        Payment,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.stripe.android",
        Payment,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.android.billingclient",
        Payment,
        ant = false,
        common = true,
        w = 3.0
    ),
    // Digital identity.
    lib!(
        "com.google.android.gms.auth",
        DigitalIdentity,
        ant = false,
        common = true,
        w = 4.0
    ),
    lib!(
        "com.facebook.login",
        DigitalIdentity,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.firebase.ui.auth",
        DigitalIdentity,
        ant = false,
        common = false,
        w = 1.0
    ),
    // GUI components.
    lib!(
        "com.airbnb.lottie",
        GuiComponent,
        ant = false,
        common = true,
        w = 3.0
    ),
    lib!(
        "com.github.mikephil.charting",
        GuiComponent,
        ant = false,
        common = true,
        w = 2.0
    ),
    lib!(
        "com.handmark.pulltorefresh",
        GuiComponent,
        ant = false,
        common = true,
        w = 1.0
    ),
    lib!(
        "uk.co.senab.photoview",
        GuiComponent,
        ant = false,
        common = true,
        w = 1.0
    ),
    // Map / LBS.
    lib!(
        "com.google.android.gms.maps",
        MapLbs,
        ant = false,
        common = true,
        w = 4.0
    ),
    lib!(
        "com.mapbox.mapboxsdk",
        MapLbs,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.baidu.location",
        MapLbs,
        ant = false,
        common = false,
        w = 1.0
    ),
    // Development frameworks.
    lib!(
        "org.apache.cordova",
        DevelopmentFramework,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "com.adobe.phonegap",
        DevelopmentFramework,
        ant = false,
        common = false,
        w = 1.0
    ),
    // App market.
    lib!(
        "com.unity3d.plugin.downloader",
        AppMarket,
        ant = false,
        common = false,
        w = 1.0
    ),
    lib!(
        "com.amazon.venezia",
        AppMarket,
        ant = false,
        common = false,
        w = 1.0
    ),
    // Utility.
    lib!(
        "com.evernote.android.job",
        Utility,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!(
        "net.hockeyapp.android",
        Utility,
        ant = false,
        common = false,
        w = 2.0
    ),
    lib!("org.acra", Utility, ant = false, common = false, w = 1.5),
    lib!("com.parse", Utility, ant = false, common = false, w = 1.5),
    lib!(
        "io.realm.sync",
        Utility,
        ant = false,
        common = false,
        w = 1.0
    ),
];

/// Templates of one category, with weights.
pub fn templates_of(category: LibCategory) -> Vec<&'static LibraryTemplate> {
    LIBRARY_TEMPLATES
        .iter()
        .filter(|t| t.category == category)
        .collect()
}

/// Builds Li et al.'s AnT/common lists from the template flags.
pub fn library_lists() -> LibraryLists {
    LibraryLists::from_prefixes(
        LIBRARY_TEMPLATES
            .iter()
            .filter(|t| t.is_ant)
            .map(|t| t.package),
        LIBRARY_TEMPLATES
            .iter()
            .filter(|t| t.is_common)
            .map(|t| t.package),
    )
}

/// A library instantiated into one app.
#[derive(Debug, Clone)]
pub struct InstantiatedLibrary {
    /// The source template.
    pub template: &'static LibraryTemplate,
    /// Methods, with internal invoke indices already offset by the
    /// caller-provided base index.
    pub methods: Vec<MethodDef>,
    /// `Application.onCreate`-time entry point.
    pub init_entry: MethodSig,
    /// UI-handler-reachable refresh entry point.
    pub refresh_entry: MethodSig,
    /// The methods that own each network op (for ground truth):
    /// `(owning method sig, op)` in the order bg0, bg1, refresh.
    pub owned_ops: Vec<(MethodSig, NetworkOp)>,
}

/// Network operands for one instantiation.
#[derive(Debug, Clone)]
pub struct LibraryOps {
    /// Background fetch performed at init (bulk of the volume).
    pub bg0: NetworkOp,
    /// Second background fetch at init.
    pub bg1: NetworkOp,
    /// Small per-refresh fetch, re-run on UI events.
    pub refresh: NetworkOp,
}

/// The dispatcher a template schedules its fetches on — fixed per
/// template (part of the structure), derived from the package name.
pub fn template_dispatcher(template: &LibraryTemplate) -> Dispatcher {
    match fnv1a(template.package) % 3 {
        0 => Dispatcher::AsyncTask,
        1 => Dispatcher::Executor,
        _ => Dispatcher::Thread,
    }
}

/// The client chain a template connects through — fixed per template.
pub fn template_connector(template: &LibraryTemplate) -> Connector {
    match fnv1a(template.package) % 4 {
        0..=1 => Connector::AndroidOkHttp,
        2 => Connector::ApacheHttp,
        _ => Connector::DirectSocket,
    }
}

/// Instantiates `template` into concrete methods. `base_index` is the
/// position in the app's method table where these methods will be
/// appended (internal invoke targets are absolute indices).
///
/// The *structure* — sub-packages, classes, method names, descriptors,
/// instruction opcodes — depends only on the template, so the LibRadar
/// fingerprint matches across apps; only the network operands differ.
pub fn instantiate(
    template: &'static LibraryTemplate,
    base_index: u32,
    ops: &LibraryOps,
) -> InstantiatedLibrary {
    let mut rng = SmallRng::seed_from_u64(fnv1a(template.package));
    let pkg = template.package;
    let dispatcher = template_dispatcher(template);

    let mut methods: Vec<MethodDef> = Vec::new();
    // Index helpers are relative; converted to absolute at push time.
    let abs = |i: usize| base_index + i as u32;

    // 0: init entry.
    let init_sig = MethodSig::new(pkg, "Sdk", "init", "(Landroid/content/Context;)V");
    // 1: bg fetcher 0 — AsyncTask-style naming, in a sub-package.
    let bg0_sig = MethodSig::new(
        &format!("{pkg}.cache"),
        "b",
        "doInBackground",
        "([Ljava/lang/Object;)Ljava/lang/Object;",
    );
    // 2: bg fetcher 1.
    let bg1_sig = MethodSig::new(&format!("{pkg}.network"), "Fetcher", "run", "()V");
    // 3: refresh entry.
    let refresh_sig = MethodSig::new(pkg, "Sdk", "refresh", "()V");
    // 4: refresh bg worker.
    let bgr_sig = MethodSig::new(&format!("{pkg}.cache"), "c", "run", "()V");

    methods.push(MethodDef {
        sig: init_sig.clone(),
        code: CodeItem {
            instructions: vec![
                Instruction::Const(1),
                Instruction::Invoke(MethodRef::External(MethodSig::new(
                    "android.util",
                    "Log",
                    "d",
                    "(Ljava/lang/String;Ljava/lang/String;)I",
                ))),
                Instruction::InvokeAsync {
                    dispatcher,
                    target: MethodRef::Internal(abs(1)),
                },
                Instruction::InvokeAsync {
                    dispatcher,
                    target: MethodRef::Internal(abs(2)),
                },
                Instruction::Invoke(MethodRef::Internal(abs(5))),
                Instruction::Return,
            ],
        },
    });
    methods.push(MethodDef {
        sig: bg0_sig.clone(),
        code: CodeItem {
            instructions: vec![
                Instruction::Const(2),
                Instruction::Network(ops.bg0.clone()),
                Instruction::Return,
            ],
        },
    });
    methods.push(MethodDef {
        sig: bg1_sig.clone(),
        code: CodeItem {
            instructions: vec![Instruction::Network(ops.bg1.clone()), Instruction::Return],
        },
    });
    methods.push(MethodDef {
        sig: refresh_sig.clone(),
        code: CodeItem {
            instructions: vec![
                Instruction::InvokeAsync {
                    dispatcher,
                    target: MethodRef::Internal(abs(4)),
                },
                Instruction::Return,
            ],
        },
    });
    methods.push(MethodDef {
        sig: bgr_sig.clone(),
        code: CodeItem {
            instructions: vec![
                Instruction::Network(ops.refresh.clone()),
                Instruction::Return,
            ],
        },
    });

    // Filler: deterministic count and structure per template. The first
    // filler (index 5) is invoked from init (coverage realism); the rest
    // form short chains that the runtime never reaches.
    let filler_count = 12 + (rng.gen_range(0..32)) as usize;
    let subpackages = ["", ".internal", ".model", ".util"];
    // Descriptor shapes drawn from the template-seeded rng: libraries
    // genuinely differ in their signature-shape distributions, and
    // descriptors survive identifier mangling, so this is what keeps
    // structurally similar templates apart in the profile space.
    let filler_descriptors = [
        "()V",
        "(I)V",
        "(J)V",
        "(Z)Z",
        "(II)I",
        "(Ljava/lang/String;)I",
        "([B)V",
    ];
    for i in 0..filler_count {
        let sub = subpackages[i % subpackages.len()];
        let descriptor = filler_descriptors[rng.gen_range(0..filler_descriptors.len())];
        let sig = MethodSig::new(
            &format!("{pkg}{sub}"),
            &format!("C{}", i / 3),
            &format!("m{i}"),
            descriptor,
        );
        let mut instructions = vec![Instruction::Const(i as u32)];
        // Chain to the next filler within the same template, sometimes.
        if i + 1 < filler_count && rng.gen_bool(0.5) {
            instructions.push(Instruction::Invoke(MethodRef::Internal(abs(5 + i + 1))));
        }
        instructions.push(Instruction::Return);
        methods.push(MethodDef {
            sig,
            code: CodeItem { instructions },
        });
    }

    InstantiatedLibrary {
        template,
        methods,
        init_entry: init_sig,
        refresh_entry: refresh_sig,
        owned_ops: vec![
            (bg0_sig, ops.bg0.clone()),
            (bg1_sig, ops.bg1.clone()),
            (bgr_sig, ops.refresh.clone()),
        ],
    }
}

/// Builds both detection knowledge bases over the whole universe: the
/// LibRadar fingerprint database and its obfuscation-resistant twin, the
/// structural-profile index. Each template is instantiated once and
/// registered in both, with placeholder operands — operands affect
/// neither fingerprints nor profiles.
pub fn build_detectors() -> (LibraryDb, StructuralIndex) {
    let mut db = LibraryDb::new();
    let mut index = StructuralIndex::new();
    let placeholder = LibraryOps {
        bg0: placeholder_op(),
        bg1: placeholder_op(),
        refresh: placeholder_op(),
    };
    for template in LIBRARY_TEMPLATES {
        let instance = instantiate(template, 0, &placeholder);
        let dex = DexFile {
            methods: instance.methods,
            classes: vec![],
        };
        db.add_library(template.package, template.category, &dex);
        index.add_library(template.package, template.category, &dex);
    }
    (db, index)
}

fn placeholder_op() -> NetworkOp {
    NetworkOp {
        domain: "placeholder.invalid".into(),
        port: 443,
        send_bytes: 0,
        recv_bytes: 0,
        connector: Connector::AndroidOkHttp,
        shape: spector_dex::model::WireShape::Plain,
    }
}

pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_covers_all_categories_with_unique_packages() {
        let mut packages: Vec<&str> = LIBRARY_TEMPLATES.iter().map(|t| t.package).collect();
        packages.sort_unstable();
        packages.dedup();
        assert_eq!(packages.len(), LIBRARY_TEMPLATES.len());
        for cat in LibCategory::ALL {
            if cat == LibCategory::Unknown {
                continue;
            }
            assert!(
                !templates_of(cat).is_empty(),
                "category {cat} has no templates"
            );
        }
    }

    #[test]
    fn template_structural_profiles_are_pairwise_distinct() {
        use spector_dex::subtree_profile;

        let placeholder = LibraryOps {
            bg0: placeholder_op(),
            bg1: placeholder_op(),
            refresh: placeholder_op(),
        };
        let mut profiles = Vec::new();
        for template in LIBRARY_TEMPLATES {
            let instance = instantiate(template, 0, &placeholder);
            let dex = DexFile {
                methods: instance.methods,
                classes: vec![],
            };
            profiles.push((template.package, subtree_profile(&dex, template.package)));
        }
        for (i, (name_a, a)) in profiles.iter().enumerate() {
            for (name_b, b) in &profiles[i + 1..] {
                assert_ne!(
                    a, b,
                    "{name_a} and {name_b} are structurally indistinguishable"
                );
            }
        }
    }

    #[test]
    fn ant_list_is_ads_plus_analytics() {
        let lists = library_lists();
        assert!(lists.is_ant("com.unity3d.ads.android.cache"));
        assert!(lists.is_ant("com.appsflyer.internal"));
        assert!(!lists.is_ant("com.unity3d.player"));
        assert!(lists.is_common("okhttp3.internal.http"));
        assert!(!lists.is_common("com.vungle.publisher"));
    }

    #[test]
    fn instantiation_structure_is_operand_independent() {
        let template = &LIBRARY_TEMPLATES[0];
        let ops_a = LibraryOps {
            bg0: NetworkOp {
                domain: "a.example".into(),
                port: 443,
                send_bytes: 10,
                recv_bytes: 1_000,
                connector: template_connector(template),
                shape: spector_dex::model::WireShape::Plain,
            },
            bg1: placeholder_op(),
            refresh: placeholder_op(),
        };
        let ops_b = LibraryOps {
            bg0: NetworkOp {
                domain: "b.example".into(),
                port: 80,
                send_bytes: 99,
                recv_bytes: 2_000,
                connector: template_connector(template),
                shape: spector_dex::model::WireShape::Plain,
            },
            bg1: placeholder_op(),
            refresh: placeholder_op(),
        };
        let a = instantiate(template, 0, &ops_a);
        let b = instantiate(template, 0, &ops_b);
        assert_eq!(a.methods.len(), b.methods.len());
        for (ma, mb) in a.methods.iter().zip(&b.methods) {
            assert_eq!(ma.sig, mb.sig);
            assert_eq!(ma.code.instructions.len(), mb.code.instructions.len());
        }
    }

    #[test]
    fn db_detects_every_template() {
        let (db, _) = build_detectors();
        assert_eq!(db.len(), LIBRARY_TEMPLATES.len());
        // Each template, instantiated with arbitrary operands at a
        // nonzero base, is still detected.
        for template in LIBRARY_TEMPLATES.iter().take(10) {
            let ops = LibraryOps {
                bg0: NetworkOp {
                    domain: "x.example".into(),
                    port: 443,
                    send_bytes: 5,
                    recv_bytes: 50,
                    connector: template_connector(template),
                    shape: spector_dex::model::WireShape::Plain,
                },
                bg1: placeholder_op(),
                refresh: placeholder_op(),
            };
            let instance = instantiate(template, 100, &ops);
            // Shift into a dex with 100 dummy methods so absolute refs hold.
            let mut methods: Vec<MethodDef> = (0..100)
                .map(|i| MethodDef {
                    sig: MethodSig::new("com.pad", "P", &format!("p{i}"), "()V"),
                    code: CodeItem::default(),
                })
                .collect();
            methods.extend(instance.methods);
            let dex = DexFile {
                methods,
                classes: vec![],
            };
            let detected = db.detect(&dex);
            assert!(
                detected.iter().any(|d| d.name == template.package),
                "{} not detected",
                template.package
            );
        }
    }

    #[test]
    fn instance_internal_refs_in_bounds_after_offset() {
        let template = &LIBRARY_TEMPLATES[3];
        let ops = LibraryOps {
            bg0: placeholder_op(),
            bg1: placeholder_op(),
            refresh: placeholder_op(),
        };
        let base = 57;
        let instance = instantiate(template, base, &ops);
        let lo = base;
        let hi = base + instance.methods.len() as u32;
        for m in &instance.methods {
            for r in m.code.invokes() {
                if let MethodRef::Internal(idx) = r {
                    assert!(*idx >= lo && *idx < hi, "ref {idx} outside [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn dispatcher_and_connector_are_stable() {
        for t in LIBRARY_TEMPLATES {
            assert_eq!(template_dispatcher(t), template_dispatcher(t));
            assert_eq!(template_connector(t), template_connector(t));
        }
    }
}
