//! The bespoke-model registry: exported [`PnnArtifact`] files in, compiled
//! [`InferencePlan`]s out.
//!
//! The registry is the deployment boundary of the "highly-bespoke" story:
//! every tabular task gets its own tiny network, so a fleet deployment is a
//! directory of artifact files keyed by model name. Loading is strict —
//! [`PnnArtifact::validate`] runs on every artifact (corrupt, non-finite, or
//! shape-inconsistent exports are rejected at load time, before they can
//! serve a single request) — and deterministic (directory loads sort file
//! names, so iteration order never depends on the filesystem).

use crate::{ServeError, OBS_MODELS_LOADED};
use pnc_core::{InferencePlan, PlanPrecision, PnnArtifact};
use std::collections::BTreeMap;
use std::path::Path;

/// One loaded model: the validated artifact plus its compiled plan.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The validated artifact, kept for introspection (design, dims, name).
    pub artifact: PnnArtifact,
    /// The plan compiled at the registry's capacity. Workers clone this so
    /// each owns its scratch buffers.
    pub(crate) plan: InferencePlan,
}

impl ModelEntry {
    /// Compiled plan for this model (shared scratch — clone it to run
    /// inference from several threads).
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }
}

/// Holds every servable model, keyed by artifact name.
///
/// All models compile with one plan capacity. The capacity should match
/// the server's `max_batch` so every coalesced micro-batch runs as a single
/// plan chunk (larger batches would still be correct — chunking never
/// changes bits — just split internally).
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    plan_capacity: usize,
    models: BTreeMap<String, ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry compiling plans with micro-batch buffers sized
    /// for `plan_capacity` rows (clamped to ≥ 1).
    ///
    /// `precision` carries no choice ([`PlanPrecision`] has the single
    /// variant `F64`); the argument stays only so the `benchmark` package,
    /// which passes it, keeps compiling.
    pub fn new(precision: PlanPrecision, plan_capacity: usize) -> ModelRegistry {
        let PlanPrecision::F64 = precision;
        crate::obs_register();
        ModelRegistry {
            plan_capacity: plan_capacity.max(1),
            models: BTreeMap::new(),
        }
    }

    /// The micro-batch capacity every plan in this registry compiles with.
    pub fn plan_capacity(&self) -> usize {
        self.plan_capacity
    }

    /// Validates and compiles an artifact into the registry under its
    /// embedded name.
    ///
    /// # Errors
    ///
    /// [`ServeError::Artifact`] when validation or compilation fails (the
    /// artifact never becomes servable), [`ServeError::Config`] when the
    /// name is already taken — two different artifacts silently shadowing
    /// each other is a deployment bug, not a merge.
    pub fn insert(&mut self, artifact: PnnArtifact) -> Result<(), ServeError> {
        if self.models.contains_key(&artifact.name) {
            return Err(ServeError::Config {
                detail: format!("duplicate model name {:?} in registry", artifact.name),
            });
        }
        let plan = InferencePlan::compile_artifact_with_capacity(&artifact, self.plan_capacity)?;
        OBS_MODELS_LOADED.increment();
        self.models
            .insert(artifact.name.clone(), ModelEntry { artifact, plan });
        Ok(())
    }

    /// Loads one artifact JSON file (see [`PnnArtifact::load`]) and inserts
    /// it.
    ///
    /// # Errors
    ///
    /// I/O failures, artifact validation failures, and duplicate names, as
    /// in [`Self::insert`].
    pub fn load_file(&mut self, path: &Path) -> Result<(), ServeError> {
        let artifact = PnnArtifact::load(path)?;
        self.insert(artifact)
    }

    /// Loads every `*.json` artifact in `dir`, in sorted file-name order
    /// (deterministic regardless of filesystem enumeration order). Returns
    /// how many models were loaded.
    ///
    /// # Errors
    ///
    /// Fails on the first unreadable or invalid artifact — a fleet with a
    /// corrupt member should not come up partially.
    pub fn load_dir(&mut self, dir: &Path) -> Result<usize, ServeError> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        for path in &paths {
            self.load_file(path)?;
        }
        Ok(paths.len())
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.models.get(name)
    }

    /// Model names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.models.keys().map(String::as_str)
    }

    /// Iterates `(name, entry)` in sorted-name order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&String, &ModelEntry)> {
        self.models.iter()
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}
