//! Rule configuration: which paths each rule covers, the declared lock
//! order, and the protocol registry sites that must stay exhaustive.

/// A function that must mention every `Message` variant (a "registry
/// site"): adding a variant without wiring it here is a lint failure.
#[derive(Debug, Clone)]
pub struct RegistrySite {
    /// Workspace-relative file path.
    pub file: String,
    /// Function name inside that file.
    pub func: String,
    /// Human-readable description for diagnostics.
    pub desc: String,
}

/// Where the audited enum lives.
#[derive(Debug, Clone)]
pub struct EnumSite {
    pub file: String,
    pub name: String,
}

/// One exhaustiveness audit: an enum plus every registry function that
/// must mention all of its variants. The workspace runs one audit per
/// protocol vocabulary (`Message` for the overlay protocol, `WirePayload`
/// for the framed wire/status vocabulary, the `NodePhase`/`SessionPhase`
/// lifecycle enums for the state controller and snapshot codec).
#[derive(Debug, Clone)]
pub struct EnumAudit {
    /// Rule label findings report under (and suppressions match on):
    /// `proto-exhaustive` for wire vocabularies, `state-exhaustive` for
    /// lifecycle state enums.
    pub rule: &'static str,
    /// The enum whose variants are audited.
    pub site: EnumSite,
    /// Functions that must mention every variant of it.
    pub registries: Vec<RegistrySite>,
}

/// Full linter configuration. [`Config::workspace`] is the checked-in
/// policy for this repository; tests build bespoke configs over fixtures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes where panicking constructs are forbidden.
    pub no_panic_paths: Vec<String>,
    /// Path prefixes where nondeterministic constructs are forbidden.
    pub determinism_paths: Vec<String>,
    /// Files whose lock acquisitions are ordered-checked.
    pub lock_files: Vec<String>,
    /// Declared lock acquisition order, outermost first. Acquiring a lock
    /// while holding one that appears later in this list is a violation,
    /// as is re-acquiring a held lock.
    pub lock_order: Vec<String>,
    /// Path prefixes where narrowing casts and `.len() - …` arithmetic
    /// are flagged (hot-path crates).
    pub cast_paths: Vec<String>,
    /// Path prefixes where unbounded collection growth is flagged
    /// (long-running crates).
    pub growth_paths: Vec<String>,
    /// Exhaustiveness audits to run (empty disables the rule).
    pub audits: Vec<EnumAudit>,
    /// Path prefixes excluded from the scan entirely.
    pub scan_exclude: Vec<String>,
    /// Directories (relative to the root) to walk for `.rs` files.
    pub scan_dirs: Vec<String>,
}

impl Config {
    /// The policy enforced on this workspace by CI.
    pub fn workspace() -> Config {
        let proto = "crates/proto/src/lib.rs";
        let store_ctrl = "crates/store/src/controller.rs";
        let store_snap = "crates/store/src/snapshot.rs";
        Config {
            no_panic_paths: vec![
                "crates/core/src/".into(),
                "crates/proto/src/".into(),
                "crates/wire/src/".into(),
                "crates/runtime/src/".into(),
                "crates/sched/src/".into(),
                "crates/model/src/".into(),
                "crates/store/src/".into(),
                "crates/util/src/framing.rs".into(),
            ],
            determinism_paths: vec![
                "crates/des/src/".into(),
                "crates/sim/src/".into(),
                "crates/core/src/".into(),
                "crates/model/src/".into(),
                "crates/store/src/".into(),
            ],
            lock_files: vec![
                "crates/wire/src/tcp.rs".into(),
                "crates/runtime/src/net.rs".into(),
                "crates/runtime/src/lib.rs".into(),
            ],
            // Outermost-first. `links` guards routing state and may be held
            // while consulting the address `book`; worker `threads` and the
            // shared `telemetry` sink are innermost.
            lock_order: vec![
                "links".into(),
                "book".into(),
                "threads".into(),
                "telemetry".into(),
            ],
            cast_paths: vec![
                "crates/model/src/".into(),
                "crates/sched/src/".into(),
                "crates/des/src/".into(),
                "crates/wire/src/".into(),
                "crates/util/src/framing.rs".into(),
            ],
            growth_paths: vec![
                "crates/runtime/src/".into(),
                "crates/wire/src/".into(),
                "crates/telemetry/src/".into(),
                "crates/store/src/".into(),
            ],
            audits: vec![
                EnumAudit {
                    rule: crate::rules::PROTO_EXHAUSTIVE,
                    site: EnumSite {
                        file: proto.into(),
                        name: "Message".into(),
                    },
                    registries: vec![
                        RegistrySite {
                            file: "crates/wire/src/frame.rs".into(),
                            func: "message_tag".into(),
                            desc: "wire codec frame-tag match \
                                   (crates/wire/src/frame.rs::message_tag)"
                                .into(),
                        },
                        RegistrySite {
                            file: proto.into(),
                            func: "size_bytes".into(),
                            desc: "bandwidth model (crates/proto/src/lib.rs::Message::size_bytes)"
                                .into(),
                        },
                        RegistrySite {
                            file: proto.into(),
                            func: "kind".into(),
                            desc: "telemetry trace vocabulary \
                                   (crates/proto/src/lib.rs::Message::kind)"
                                .into(),
                        },
                        RegistrySite {
                            file: "crates/wire/tests/size_estimate.rs".into(),
                            func: "exemplars".into(),
                            desc: "wire size-estimate exemplar list \
                                   (crates/wire/tests/size_estimate.rs)"
                                .into(),
                        },
                        RegistrySite {
                            file: proto.into(),
                            func: "trace_category".into(),
                            desc: "causal trace vocabulary \
                                   (crates/proto/src/lib.rs::Message::trace_category)"
                                .into(),
                        },
                        RegistrySite {
                            file: "crates/wire/tests/envelope_roundtrip.rs".into(),
                            func: "exemplars".into(),
                            desc: "trace-context envelope round-trip exemplar list \
                                   (crates/wire/tests/envelope_roundtrip.rs)"
                                .into(),
                        },
                    ],
                },
                // The framed wire vocabulary: every `WirePayload` variant
                // (Hello, Envelope, StatusRequest, StatusReport) must keep
                // a frame tag and a version-skew exemplar. Deleting a
                // status/series codec arm fails the lint by name.
                EnumAudit {
                    rule: crate::rules::PROTO_EXHAUSTIVE,
                    site: EnumSite {
                        file: "crates/wire/src/lib.rs".into(),
                        name: "WirePayload".into(),
                    },
                    registries: vec![
                        RegistrySite {
                            file: "crates/wire/src/frame.rs".into(),
                            func: "message_tag".into(),
                            desc: "wire codec frame-tag match \
                                   (crates/wire/src/frame.rs::message_tag)"
                                .into(),
                        },
                        RegistrySite {
                            file: "crates/wire/tests/status_skew.rs".into(),
                            func: "exemplars".into(),
                            desc: "status version-skew exemplar list \
                                   (crates/wire/tests/status_skew.rs)"
                                .into(),
                        },
                    ],
                },
                // Lifecycle state enums: every phase must be handled by the
                // state-controller loop AND round-trip through the snapshot
                // codec. Adding a variant without teaching either fails the
                // lint as `state-exhaustive`.
                EnumAudit {
                    rule: crate::rules::STATE_EXHAUSTIVE,
                    site: EnumSite {
                        file: store_ctrl.into(),
                        name: "NodePhase".into(),
                    },
                    registries: vec![
                        RegistrySite {
                            file: store_ctrl.into(),
                            func: "apply".into(),
                            desc: "state-controller handler loop \
                                   (crates/store/src/controller.rs::apply)"
                                .into(),
                        },
                        RegistrySite {
                            file: store_snap.into(),
                            func: "node_phase_tag".into(),
                            desc: "snapshot codec phase tag \
                                   (crates/store/src/snapshot.rs::node_phase_tag)"
                                .into(),
                        },
                        RegistrySite {
                            file: store_snap.into(),
                            func: "node_phase_from_tag".into(),
                            desc: "snapshot codec phase decode \
                                   (crates/store/src/snapshot.rs::node_phase_from_tag)"
                                .into(),
                        },
                    ],
                },
                EnumAudit {
                    rule: crate::rules::STATE_EXHAUSTIVE,
                    site: EnumSite {
                        file: store_ctrl.into(),
                        name: "SessionPhase".into(),
                    },
                    registries: vec![
                        RegistrySite {
                            file: store_ctrl.into(),
                            func: "apply".into(),
                            desc: "state-controller handler loop \
                                   (crates/store/src/controller.rs::apply)"
                                .into(),
                        },
                        RegistrySite {
                            file: store_snap.into(),
                            func: "session_phase_tag".into(),
                            desc: "snapshot codec session tag \
                                   (crates/store/src/snapshot.rs::session_phase_tag)"
                                .into(),
                        },
                        RegistrySite {
                            file: store_snap.into(),
                            func: "session_phase_from_tag".into(),
                            desc: "snapshot codec session decode \
                                   (crates/store/src/snapshot.rs::session_phase_from_tag)"
                                .into(),
                        },
                    ],
                },
            ],
            scan_exclude: vec!["crates/shims/".into(), "crates/lint/tests/fixtures/".into()],
            scan_dirs: vec!["crates".into(), "src".into()],
        }
    }
}
