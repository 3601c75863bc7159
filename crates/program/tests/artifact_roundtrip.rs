//! Durability of the trace artifact format.
//!
//! A saved [`CapturedTrace`] must survive the disk round trip bit-exactly —
//! same replayed stream, same summary, same fingerprint — for traces of any
//! length, with or without the attached dependence graph. And because
//! sweeps are driven from these artifacts, a *damaged* artifact must never
//! replay garbage: every truncation has to surface as
//! [`ArtifactError::TruncatedArtifact`] (or a header error) and every
//! flipped payload byte as [`ArtifactError::ChecksumMismatch`] naming the
//! corrupted section, never as a panic or a silently different trace.
//!
//! The dispatch-group fusion tables serialize into the same container
//! ([`FusionTable::to_bytes`] payloads as tagged sections), so the suite
//! also drills them through the gauntlet: bit-exact roundtrip, and
//! truncation and checksum corruption pinned to the fusion section.

use dvi_program::artifact::{xxh64, ArtifactReader, ArtifactWriter};
use dvi_program::captured::{section, TRACE_MAGIC, TRACE_VERSION};
use dvi_program::{
    ArtifactError, CapturedTrace, FusionTable, LayoutProgram, ProcBuilder, ProgramBuilder,
    DATA_BASE,
};
use proptest::prelude::*;
use std::sync::Arc;

use dvi_isa::{AluOp, ArchReg, CmpOp, Instr};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

/// A program exercising every record shape the codec has to carry: ALU ops,
/// loads/stores (side addresses), taken and fall-through branches, calls,
/// returns (redirects) and the final halt.
fn mixed_program(iters: i32) -> LayoutProgram {
    let mut b = ProgramBuilder::new();
    let mut main = ProcBuilder::new("main");
    let body = main.new_block();
    main.emit(Instr::load_imm(r(8), iters));
    main.emit(Instr::load_imm(r(9), DATA_BASE as i32));
    main.switch_to(body);
    main.emit(Instr::Store { rs: r(8), base: r(9), offset: 0 });
    main.emit(Instr::Load { rd: r(10), base: r(9), offset: 0 });
    main.emit_call("leaf");
    main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(8), rs: r(8), imm: 1 });
    main.emit_branch(CmpOp::Ne, r(8), ArchReg::ZERO, body);
    let exit = main.new_block();
    main.switch_to(exit);
    main.emit(Instr::Halt);
    b.add_procedure(main).unwrap();
    let mut leaf = ProcBuilder::new("leaf");
    leaf.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: ArchReg::A0, rt: r(8) });
    leaf.emit(Instr::Return);
    b.add_procedure(leaf).unwrap();
    b.build("main").unwrap().layout().unwrap()
}

/// Walks the artifact container and yields `(tag, payload_start, payload_len)`
/// for every section, so the corruption tests can aim one byte flip at each
/// section's payload individually.
fn section_spans(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut spans = Vec::with_capacity(count);
    let mut at = 16usize;
    for _ in 0..count {
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + 20; // tag (4) + len (8) + checksum (8)
        spans.push((tag, payload, len));
        at = payload + len;
    }
    assert_eq!(at, bytes.len(), "section walk must cover the whole artifact");
    spans
}

proptest! {
    #[test]
    fn save_then_load_is_identity_for_any_recording_length(
        step_limit in 1u64..600,
        iters in 1i32..24,
        with_graph in any::<bool>(),
    ) {
        let layout = mixed_program(iters);
        let mut trace = CapturedTrace::record(&layout, step_limit);
        if with_graph {
            trace.build_depgraph();
        }
        let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("clean bytes load");
        prop_assert_eq!(loaded.len(), trace.len());
        prop_assert_eq!(loaded.summary(), trace.summary());
        prop_assert_eq!(loaded.fingerprint(), trace.fingerprint());
        prop_assert_eq!(
            loaded.replay().collect::<Vec<_>>(),
            trace.replay().collect::<Vec<_>>()
        );
        prop_assert_eq!(loaded.depgraph().is_some(), with_graph);
        if let Some(graph) = loaded.depgraph() {
            prop_assert_eq!(graph.len(), trace.len());
        }
    }

    #[test]
    fn every_truncation_is_rejected_with_a_typed_error(cut_seed in any::<u64>()) {
        let mut trace = CapturedTrace::record(&mixed_program(6), 400);
        trace.build_depgraph();
        let bytes = trace.to_bytes();
        // One arbitrary interior cut per case, plus the boundary cuts every
        // case checks: nothing, half a header, and one missing tail byte.
        let arbitrary = 1 + (cut_seed as usize % (bytes.len() - 1));
        for cut in [0usize, 7, 15, arbitrary, bytes.len() - 1] {
            let err = CapturedTrace::from_bytes(&bytes[..cut])
                .expect_err("a truncated artifact must not load");
            prop_assert!(
                matches!(
                    err,
                    ArtifactError::TruncatedArtifact { .. } | ArtifactError::BadMagic { .. }
                ),
                "cut at {} gave {:?}",
                cut,
                err
            );
        }
    }
}

#[test]
fn one_flipped_byte_in_any_section_is_a_checksum_mismatch() {
    let mut trace = CapturedTrace::record(&mixed_program(5), 300);
    trace.build_depgraph();
    let bytes = trace.to_bytes();
    let spans = section_spans(&bytes);
    assert!(spans.len() >= 6, "the trace artifact carries every core section plus the graph");
    for (tag, start, len) in spans {
        if len == 0 {
            continue;
        }
        // Flip one byte in the middle of this section's payload.
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x40;
        let err =
            CapturedTrace::from_bytes(&corrupt).expect_err("a corrupted artifact must not load");
        assert_eq!(
            err,
            ArtifactError::ChecksumMismatch { section: tag },
            "flip in section {tag} must be pinned to that section"
        );
    }
}

#[test]
fn header_corruption_reports_magic_and_version_errors() {
    let trace = CapturedTrace::record(&mixed_program(3), 100);
    let bytes = trace.to_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    let mut expected_found = TRACE_MAGIC;
    expected_found[0] ^= 0xff;
    assert_eq!(
        CapturedTrace::from_bytes(&wrong_magic).expect_err("bad magic must not load"),
        ArtifactError::BadMagic { found: expected_found, expected: TRACE_MAGIC }
    );

    let mut future_version = bytes.clone();
    future_version[8..12].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
    assert_eq!(
        CapturedTrace::from_bytes(&future_version).expect_err("future version must not load"),
        ArtifactError::VersionSkew { found: TRACE_VERSION + 1, supported: TRACE_VERSION }
    );
}

#[test]
fn save_and_load_round_trip_through_the_filesystem() {
    let dir = std::env::temp_dir().join("dvi-artifact-roundtrip-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.dvitrace");

    let mut trace = CapturedTrace::record(&mixed_program(8), 500);
    trace.build_depgraph();
    trace.save(&path).expect("save succeeds");
    let loaded = CapturedTrace::load(&path).expect("load succeeds");
    assert_eq!(loaded.fingerprint(), trace.fingerprint());
    assert_eq!(loaded.replay().collect::<Vec<_>>(), trace.replay().collect::<Vec<_>>());

    // The atomic writer must not leave its temporary file behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|n| n != "trace.dvitrace")
        .collect();
    assert!(leftovers.is_empty(), "stray files after atomic save: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Container magic and section tag the fusion tests store tables under
/// (section tags are a per-format, writer-chosen namespace).
const FUSION_MAGIC: [u8; 8] = *b"DVIFUSN1";
const FUSION_TAG: u32 = u32::from_le_bytes(*b"FUSN");

/// A container holding the fusion tables built over `trace` at two decode
/// widths, one tagged section per width, plus the tables themselves.
fn fusion_container(trace: &CapturedTrace) -> (Vec<Arc<FusionTable>>, Vec<u8>) {
    let mut owned = trace.clone();
    let tables = vec![owned.build_fusion(4), owned.build_fusion(8)];
    let mut writer = ArtifactWriter::new(FUSION_MAGIC, 1);
    for table in &tables {
        writer.section(FUSION_TAG, table.to_bytes());
    }
    (tables, writer.to_bytes())
}

fn load_fusion_container(bytes: &[u8]) -> Result<Vec<FusionTable>, ArtifactError> {
    let reader = ArtifactReader::parse(bytes, FUSION_MAGIC, 1)?;
    reader.sections_with_tag(FUSION_TAG).map(FusionTable::from_bytes).collect()
}

#[test]
fn fusion_sections_roundtrip_bit_exactly() {
    let trace = CapturedTrace::record(&mixed_program(6), 400);
    let (tables, bytes) = fusion_container(&trace);
    let loaded = load_fusion_container(&bytes).expect("a clean container loads");

    assert_eq!(loaded.len(), 2, "both width classes survive the trip");
    for (got, want) in loaded.iter().zip(&tables) {
        assert_eq!(got.width(), want.width());
        assert_eq!(got.len(), want.len());
        assert_eq!(got.len(), trace.len(), "one table row per trace record");
        assert!(want.fused_records() > 0, "the mixed program carries fusable groups");
        assert_eq!(got.group_count(), want.group_count());
        assert_eq!(got.fused_records(), want.fused_records());
        assert_eq!(
            got.to_bytes(),
            want.to_bytes(),
            "width-{} table must survive the round trip bit-exactly",
            want.width()
        );
    }
}

#[test]
fn corrupted_or_truncated_fusion_sections_are_rejected_with_typed_errors() {
    let trace = CapturedTrace::record(&mixed_program(5), 300);
    let (tables, bytes) = fusion_container(&trace);
    let spans = section_spans(&bytes);
    assert_eq!(spans.len(), 2, "one section per stored width");
    for (tag, start, len) in spans {
        assert_eq!(tag, FUSION_TAG);
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x40;
        assert_eq!(
            load_fusion_container(&corrupt).expect_err("a corrupted container must not load"),
            ArtifactError::ChecksumMismatch { section: tag },
            "flip in a fusion section must be pinned to its tag"
        );
        let err = load_fusion_container(&bytes[..start + len / 2])
            .expect_err("a truncated container must not load");
        assert!(
            matches!(err, ArtifactError::TruncatedArtifact { .. }),
            "cut inside a fusion section gave {err:?}"
        );
    }
    // A section that hashes clean but was cut short by its writer is a
    // typed decode error, not a short table.
    let payload = tables[0].to_bytes();
    let mut writer = ArtifactWriter::new(FUSION_MAGIC, 1);
    writer.section(FUSION_TAG, payload[..payload.len() - 1].to_vec());
    assert!(
        load_fusion_container(&writer.to_bytes()).is_err(),
        "a short fusion payload must not decode"
    );
}

/// Overwrites the `u64` at `offset` into section `tag`'s payload and
/// recomputes that section's checksum, the way a hostile uploader can: the
/// checksums are unkeyed, so only the payload parser stands between a
/// forged length and the allocator.
fn forge_u64(bytes: &[u8], tag: u32, offset: usize, value: u64) -> Vec<u8> {
    let (_, start, len) =
        *section_spans(bytes).iter().find(|(t, ..)| *t == tag).expect("section present");
    let mut forged = bytes.to_vec();
    forged[start + offset..start + offset + 8].copy_from_slice(&value.to_le_bytes());
    let checksum = xxh64(&forged[start..start + len], u64::from(tag));
    forged[start - 8..start].copy_from_slice(&checksum.to_le_bytes());
    forged
}

/// A re-checksummed artifact whose length fields promise more elements
/// than the payload holds — a META record count of 2^40 or `u64::MAX`, a
/// forged static-image length, a forged dependence-graph length — is a
/// typed `Malformed` error, not an allocation abort or a capacity panic.
#[test]
fn forged_lengths_with_valid_checksums_are_typed_errors() {
    let mut trace = CapturedTrace::record(&mixed_program(6), 400);
    trace.build_depgraph();
    let bytes = trace.to_bytes();
    let forgeries = [
        (section::META, 0, 1u64 << 40),
        (section::META, 0, u64::MAX),
        (section::META, 8, 1u64 << 40),
        (section::DEPGRAPH, 0, 1u64 << 40),
        (section::DEPGRAPH, 0, u64::MAX),
    ];
    for (tag, offset, value) in forgeries {
        let forged = forge_u64(&bytes, tag, offset, value);
        match CapturedTrace::from_bytes(&forged) {
            Err(ArtifactError::Malformed { .. }) => {}
            other => panic!("section {tag} +{offset} = {value}: expected Malformed, got {other:?}"),
        }
    }
}
