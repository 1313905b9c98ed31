//! The live model: versioned engines and atomic blue/green hot-swap.
//!
//! A running daemon serves exactly one *current* engine at a time, held in
//! its [`Lifecycle`]. `POST /v1/model` uploads a new [`AnnotatorBundle`]
//! checkpoint blob; the lifecycle CRC-verifies and strict-loads it, builds a
//! fresh [`BatchAnnotator`] **off the hot path** (no request ever waits on
//! an engine build), and then swaps one `Arc` pointer. Every request
//! captures its engine `Arc` at serialize time, so the swap is atomic at
//! request granularity: in-flight micro-batches finish on the model they
//! started with, and each response carries the `x-model-version` label of
//! the engine that actually produced its bytes. The quantized twin is not
//! special-cased — [`BatchAnnotator::with_config`] rebuilds the int8 model
//! from the new bundle whenever `BatchConfig::quant` is set, so both tiers
//! swap together.
//!
//! Version labels are `"{version}-{crc:08x}"`: a monotonically increasing
//! swap ordinal plus the checkpoint payload CRC32 from the blob header
//! (the same checksum [`AnnotatorBundle::load`] verifies). Two uploads of
//! the same bytes get distinct ordinals but share the CRC half, which is
//! what lets a test (or the CI smoke) match a response to the exact
//! checkpoint bytes that produced it. An upload's CRC is read from its
//! header, and so is a `--checkpoint` boot model's (the file it was loaded
//! from); only a `--synthetic` boot, which has no file, serializes its
//! bundle once to compute it ([`Lifecycle::new`]).
//!
//! A model has one way into a running daemon: `POST /v1/model`, whose
//! loader thread is [`Lifecycle::swap_blob`]'s one caller. Behind
//! `doduo-balance` that upload is the fleet's one writer, which is what
//! keeps every replica on the committed model. A replica holds its model
//! and nothing else: it never retrains itself and keeps no corrections. A
//! fine-tune on corrected labels runs outside the daemon and publishes
//! through `POST /v1/model` like any other model.

use doduo_core::{blob_crc, AnnotatorBundle};
use doduo_serve::{BatchAnnotator, BatchConfig};
use std::sync::{Arc, Mutex};

/// One serving engine pinned to the model version it was built from.
///
/// Immutable after construction: the dispatcher and every handler share it
/// by `Arc`, and a hot-swap replaces the whole value rather than mutating
/// it.
pub struct VersionedEngine {
    engine: BatchAnnotator,
    version: u64,
    crc: u32,
}

impl VersionedEngine {
    /// The batched annotation engine.
    pub fn engine(&self) -> &BatchAnnotator {
        &self.engine
    }

    /// Monotonic swap ordinal (1 for the boot model).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// CRC32 of the checkpoint payload this engine was built from.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// The wire label carried in `x-model-version` headers and `/v1/stats`:
    /// `"{version}-{crc:08x}"`.
    pub fn label(&self) -> String {
        format!("{}-{:08x}", self.version, self.crc)
    }
}

/// The daemon's single mutable model pointer: the blue/green swap point.
/// One per daemon, shared by the reactor, the dispatcher and the loader.
///
/// `current()` is a mutex-guarded `Arc` clone (nanoseconds, never held
/// across work); `swap_blob` does all expensive work — CRC verification,
/// deserialization, engine construction, int8 requantization — before
/// taking the lock.
pub struct Lifecycle {
    current: Mutex<Arc<VersionedEngine>>,
    /// Engine knobs applied to every rebuilt engine (including `quant`).
    engine_cfg: BatchConfig,
}

impl Lifecycle {
    /// Builds the boot engine (version 1) around `bundle`, labelled with
    /// [`AnnotatorBundle::crc`]: a `--checkpoint` boot reuses the CRC its
    /// file was just verified against (no re-serialization), and a
    /// `--synthetic` boot, which has no file, serializes its bundle once to
    /// compute it. Both give the same label for the same model (pinned by
    /// the root `numerics_pin` suite).
    pub fn new(bundle: Arc<AnnotatorBundle>, engine_cfg: BatchConfig) -> Lifecycle {
        let crc = bundle.crc();
        let engine = BatchAnnotator::with_config(bundle, engine_cfg.clone());
        Lifecycle {
            current: Mutex::new(Arc::new(VersionedEngine { engine, version: 1, crc })),
            engine_cfg,
        }
    }

    /// The engine serving right now. Callers capture the `Arc` once per
    /// request (or stream) and use it throughout, so a
    /// concurrent swap never changes the model under them.
    pub fn current(&self) -> Arc<VersionedEngine> {
        Arc::clone(&self.current.lock().expect("model lock"))
    }

    /// Completed hot-swaps since boot: each one takes the next ordinal.
    pub fn swaps(&self) -> u64 {
        self.current().version - 1
    }

    /// Strict-loads a checkpoint blob, builds the replacement engine off
    /// the hot path, and swaps it in. Returns the new engine. In-flight
    /// batches keep the `Arc` they captured and finish on the old model.
    /// The only way a model reaches the daemon after boot (its one caller
    /// is the `POST /v1/model` loader thread), so every installed model has
    /// passed [`AnnotatorBundle::load`]'s checks (structure, CRC, finite
    /// weights); a rejected blob's error says which check it failed.
    pub fn swap_blob(&self, blob: &[u8]) -> Result<Arc<VersionedEngine>, String> {
        let crc = blob_crc(blob).ok_or("not a checkpoint blob (bad magic)")?;
        let bundle = AnnotatorBundle::load(blob).map_err(|e| format!("{e:?}"))?;
        // All expensive work (engine build, quantization) happens here,
        // before the lock.
        let engine = BatchAnnotator::with_config(Arc::new(bundle), self.engine_cfg.clone());
        let mut current = self.current.lock().expect("model lock");
        let fresh = Arc::new(VersionedEngine { engine, version: current.version + 1, crc });
        *current = Arc::clone(&fresh);
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::synthetic_world;

    #[test]
    fn slot_swaps_are_versioned_and_crc_labelled() {
        let a = synthetic_world(true, 42);
        let b = synthetic_world(true, 99);
        let slot = Lifecycle::new(Arc::clone(&a.bundle), BatchConfig::default());
        let boot = slot.current();
        assert_eq!(boot.version(), 1);
        assert_eq!(slot.swaps(), 0);
        let blob_b = b.bundle.save();
        let crc_b = blob_crc(&blob_b).expect("crc");
        let swapped = slot.swap_blob(&blob_b).expect("valid blob swaps");
        assert_eq!(swapped.version(), 2);
        assert_eq!(swapped.crc(), crc_b);
        assert_eq!(swapped.label(), format!("2-{crc_b:08x}"));
        assert_eq!(slot.swaps(), 1);
        assert_eq!(slot.current().label(), swapped.label());
        // The captured boot Arc still serves the old model (blue/green).
        assert_ne!(boot.crc(), swapped.crc());
    }

    #[test]
    fn corrupt_blob_is_rejected_and_slot_unchanged() {
        let w = synthetic_world(true, 42);
        let slot = Lifecycle::new(Arc::clone(&w.bundle), BatchConfig::default());
        let before = slot.current().label();
        let mut blob = w.bundle.save();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xff;
        assert!(slot.swap_blob(&blob).is_err());
        assert!(slot.swap_blob(b"junk").is_err());
        assert_eq!(slot.current().label(), before, "failed swap leaves the slot untouched");
        assert_eq!(slot.swaps(), 0);
    }

    #[test]
    fn diverged_retrained_bundle_is_rejected_and_old_engine_stays_current() {
        // What a fine-tune cycle that diverged hands to the install step: a
        // structurally perfect, CRC-valid checkpoint with a NaN weight.
        let w = synthetic_world(true, 42);
        let slot = Lifecycle::new(Arc::clone(&w.bundle), BatchConfig::default());
        let before = slot.current().label();
        let mut poisoned = AnnotatorBundle::load(&w.bundle.save()).expect("copy loads");
        poisoned.store.get_mut(0).data_mut()[0] = f32::NAN;
        match slot.swap_blob(&poisoned.save()) {
            Err(msg) => assert!(msg.contains("NonFinite"), "{msg}"),
            Ok(_) => panic!("a NaN-poisoned bundle was installed"),
        }
        assert_eq!(slot.current().label(), before, "the old engine is still current");
        assert_eq!(slot.swaps(), 0);
    }
}
