//! The vulnerability-signature plugin interface.
//!
//! SEPAR is plugin-based: each known inter-app vulnerability is distilled
//! into a formally-specified signature. A signature contributes constraints
//! over the encoded bundle (including the postulated malicious app's free
//! relations) and decodes the solver's minimal satisfying instances back
//! into concrete [`Exploit`]s. Users can register additional signatures at
//! any time to enrich the environment, as the paper describes.

use std::time::Duration;

use separ_analysis::model::AppModel;
use separ_logic::{LogicError, SolverStats};

use crate::encode::BundleBase;
use crate::exploit::{Exploit, VulnKind};
use crate::footprint::SignatureFootprint;

/// The result of one signature's synthesis run.
#[derive(Debug, Default)]
pub struct Synthesis {
    /// Decoded exploit scenarios (one per minimal model, deduplicated).
    pub exploits: Vec<Exploit>,
    /// Time spent translating relational logic to CNF.
    pub construction: Duration,
    /// Time spent in the SAT solver.
    pub solving: Duration,
    /// Number of primary (free) boolean variables.
    pub primary_vars: usize,
    /// Number of CNF clauses asserted into the solver.
    pub cnf_clauses: usize,
    /// Whether the run translated from a shared [`BundleBase`].
    pub shared_base: bool,
    /// SAT-solver counters accumulated across the enumeration.
    pub solver: SolverStats,
}

/// Everything a signature needs for one synthesis run against a bundle:
/// the app models, the shared per-bundle encoding/translation and the
/// scenario cap.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisContext<'a> {
    /// The (passive-intent-resolved) bundle models.
    pub apps: &'a [AppModel],
    /// The shared bundle encoding and translation base.
    pub base: &'a BundleBase,
    /// Maximum minimal scenarios to enumerate.
    pub limit: usize,
}

/// What parts of the bundle model a signature's verdict depends on, used
/// by the incremental engine to decide which signatures a change can
/// affect. Every signature depends on the bundle topology (components,
/// filters, intents, paths): a topology change re-runs them all.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Sensitivity {
    /// Depends on granted/enforced/used permissions.
    pub permissions: bool,
}

impl Default for Sensitivity {
    /// Conservatively sensitive to everything.
    fn default() -> Sensitivity {
        Sensitivity { permissions: true }
    }
}

/// A pluggable vulnerability signature.
///
/// The [`SignatureFootprint`] supertrait declares what the signature's
/// relational atoms range over, letting the pipeline slice the bundle
/// universe per signature before translation. Plugins that don't care
/// implement it empty (`impl SignatureFootprint for MySig {}`) and
/// inherit the conservative whole-bundle footprint.
pub trait VulnerabilitySignature: SignatureFootprint + Send + Sync {
    /// The category this signature detects.
    fn kind(&self) -> VulnKind;

    /// Human-readable plugin name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// What model facets this signature reads (conservative default).
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::default()
    }

    /// Synthesizes exploit scenarios against a prepared bundle context.
    ///
    /// The context carries the shared per-bundle encoding: implementations
    /// clone [`BundleBase::problem`] (instead of re-encoding the bundle)
    /// and translate from [`BundleBase::base`].
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if the generated specification is
    /// ill-typed (a signature implementation bug).
    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError>;

    /// Synthesizes up to `limit` exploit scenarios against the bundle,
    /// building a private [`BundleBase`].
    /// Convenience for one-off runs; the pipeline shares one base across
    /// the registry via [`VulnerabilitySignature::synthesize_with`].
    ///
    /// # Errors
    ///
    /// Returns a [`LogicError`] if the generated specification is
    /// ill-typed (a signature implementation bug).
    fn synthesize(&self, apps: &[AppModel], limit: usize) -> Result<Synthesis, LogicError> {
        let base = BundleBase::new(apps);
        self.synthesize_with(&SynthesisContext {
            apps,
            base: &base,
            limit,
        })
    }
}

/// An ordered collection of signatures (the plugin registry).
pub struct SignatureRegistry {
    signatures: Vec<Box<dyn VulnerabilitySignature>>,
}

impl SignatureRegistry {
    /// An empty registry.
    pub fn empty() -> SignatureRegistry {
        SignatureRegistry {
            signatures: Vec::new(),
        }
    }

    /// The registry with the four shipped plugins.
    pub fn standard() -> SignatureRegistry {
        use crate::vulns::{
            ComponentLaunchSignature, InformationLeakageSignature, IntentHijackSignature,
            PrivilegeEscalationSignature,
        };
        let mut r = SignatureRegistry::empty();
        r.register(Box::new(IntentHijackSignature));
        r.register(Box::new(ComponentLaunchSignature));
        r.register(Box::new(PrivilegeEscalationSignature));
        r.register(Box::new(InformationLeakageSignature));
        r
    }

    /// The standard registry plus the shipped extension plugins
    /// (currently broadcast injection).
    pub fn extended() -> SignatureRegistry {
        let mut r = SignatureRegistry::standard();
        r.register(Box::new(crate::vulns::BroadcastInjectionSignature));
        r
    }

    /// Adds a signature plugin.
    pub fn register(&mut self, signature: Box<dyn VulnerabilitySignature>) {
        self.signatures.push(signature);
    }

    /// Iterates over registered signatures.
    pub fn iter(&self) -> impl Iterator<Item = &dyn VulnerabilitySignature> + '_ {
        self.signatures.iter().map(Box::as_ref)
    }

    /// Number of registered signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Returns `true` if no signatures are registered.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }
}

impl std::fmt::Debug for SignatureRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.signatures.iter().map(|s| s.name()))
            .finish()
    }
}

impl Default for SignatureRegistry {
    fn default() -> SignatureRegistry {
        SignatureRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_ships_four_plugins() {
        let r = SignatureRegistry::standard();
        assert_eq!(r.len(), 4);
        let kinds: Vec<VulnKind> = r.iter().map(|s| s.kind()).collect();
        assert_eq!(kinds, VulnKind::ALL[..4].to_vec());
    }

    #[test]
    fn registry_is_extensible() {
        struct Custom;
        // The empty impl inherits the conservative whole-bundle footprint.
        impl SignatureFootprint for Custom {}
        impl VulnerabilitySignature for Custom {
            fn kind(&self) -> VulnKind {
                VulnKind::IntentHijack
            }
            fn name(&self) -> &'static str {
                "custom-hijack-variant"
            }
            fn synthesize_with(
                &self,
                _ctx: &SynthesisContext<'_>,
            ) -> Result<Synthesis, LogicError> {
                Ok(Synthesis::default())
            }
        }
        let mut r = SignatureRegistry::standard();
        r.register(Box::new(Custom));
        assert_eq!(r.len(), 5);
        assert!(r.iter().any(|s| s.name() == "custom-hijack-variant"));
    }
}
