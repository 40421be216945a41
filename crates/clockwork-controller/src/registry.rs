//! Open registration of serving disciplines.
//!
//! The paper's headline result is a *comparison*: Clockwork against
//! Clipper-/INFaaS-style baselines under identical load. This module makes
//! the discipline set open instead of a closed enum: a
//! [`SchedulerFactory`] describes how to construct one discipline (and which
//! worker execution mode it assumes), and a [`SchedulerRegistry`] holds
//! factories by name in deterministic registration order. The serving
//! system only ever sees the [`Scheduler`] trait; crates that implement
//! disciplines (the baselines, or a user's fifth discipline) register
//! themselves into a registry that experiment harnesses iterate.
//!
//! The dependency edge is thereby inverted: the facade no longer links the
//! baseline crate — the baseline crate links this one.

use clockwork_worker::ExecMode;

use crate::alt::FifoScheduler;
use crate::clockwork_scheduler::{ClockworkScheduler, ClockworkSchedulerConfig};
use crate::scheduler::Scheduler;

/// Constructs one serving discipline.
///
/// A factory is cheap, immutable configuration; [`SchedulerFactory::build`]
/// may be called any number of times and must return a fresh, independent
/// scheduler each time (experiment harnesses run the same factory across
/// many seeds and scenarios).
pub trait SchedulerFactory {
    /// The discipline's name — stable, snake_case, unique within a registry
    /// (e.g. `"clockwork"`, `"clipper"`). This is the name experiment output
    /// reports and the key under which results are filed.
    fn name(&self) -> &'static str;

    /// The worker execution mode this discipline assumes when the experiment
    /// does not override it: Clockwork-style proactive disciplines schedule
    /// for exclusive one-at-a-time execution, reactive baselines run atop
    /// frameworks that execute concurrently.
    fn default_exec_mode(&self) -> ExecMode {
        ExecMode::Exclusive
    }

    /// Builds a fresh scheduler instance.
    fn build(&self) -> Box<dyn Scheduler>;
}

/// A named, ordered collection of [`SchedulerFactory`]s.
///
/// Iteration order is registration order, so experiment loops over "every
/// registered discipline" are deterministic. Registering a name twice
/// replaces the earlier factory in place (keeping its position) — useful for
/// overriding the built-in `clockwork` entry with a tuned configuration.
#[derive(Default)]
pub struct SchedulerRegistry {
    factories: Vec<Box<dyn SchedulerFactory>>,
}

impl SchedulerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchedulerRegistry::default()
    }

    /// A registry pre-populated with the disciplines this crate implements:
    /// `clockwork` (default configuration) and the `fifo` ablation. Baseline
    /// crates add theirs on top (e.g.
    /// `clockwork_baselines::register_baselines`).
    pub fn builtin() -> Self {
        let mut registry = SchedulerRegistry::new();
        registry.register(Box::new(ClockworkFactory::default()));
        registry.register(Box::new(FifoFactory));
        registry
    }

    /// Registers a factory. A factory with the same name replaces the
    /// existing entry in place, preserving iteration order.
    pub fn register(&mut self, factory: Box<dyn SchedulerFactory>) {
        if let Some(existing) = self
            .factories
            .iter_mut()
            .find(|f| f.name() == factory.name())
        {
            *existing = factory;
        } else {
            self.factories.push(factory);
        }
    }

    /// Looks up a factory by discipline name.
    pub fn get(&self, name: &str) -> Option<&dyn SchedulerFactory> {
        self.factories
            .iter()
            .find(|f| f.name() == name)
            .map(|f| f.as_ref())
    }

    /// Builds a fresh scheduler for a named discipline.
    pub fn build(&self, name: &str) -> Option<Box<dyn Scheduler>> {
        self.get(name).map(|f| f.build())
    }

    /// The registered discipline names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.factories.iter().map(|f| f.name()).collect()
    }

    /// Iterates the registered factories in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn SchedulerFactory> {
        self.factories.iter().map(|f| f.as_ref())
    }

    /// Number of registered disciplines.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

/// Factory for the paper's Clockwork scheduler.
#[derive(Clone, Debug, Default)]
pub struct ClockworkFactory {
    /// Configuration every built scheduler starts from.
    pub config: ClockworkSchedulerConfig,
}

impl ClockworkFactory {
    /// A factory building Clockwork schedulers with the given configuration.
    pub fn new(config: ClockworkSchedulerConfig) -> Self {
        ClockworkFactory { config }
    }
}

impl SchedulerFactory for ClockworkFactory {
    fn name(&self) -> &'static str {
        "clockwork"
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(ClockworkScheduler::new(self.config))
    }
}

/// Factory for the Clockwork scheduler with batch formation disabled: every
/// INFER runs at batch size 1 and admission prices requests at the size-1
/// kernel cost, exactly the pre-batching behavior. This is the honest
/// comparator for the batching figure (`batch_sweep`) and the ablation knob
/// behind it — register it alongside [`ClockworkFactory`] to measure what
/// batch-amortized execution alone buys.
#[derive(Clone, Copy, Debug)]
pub struct ClockworkNoBatchFactory {
    /// Configuration every built scheduler starts from (`batching` is
    /// forced off in [`Default`], and callers should keep it off — the
    /// name would lie otherwise).
    pub config: ClockworkSchedulerConfig,
}

impl Default for ClockworkNoBatchFactory {
    fn default() -> Self {
        ClockworkNoBatchFactory {
            config: ClockworkSchedulerConfig {
                batching: false,
                ..ClockworkSchedulerConfig::default()
            },
        }
    }
}

impl SchedulerFactory for ClockworkNoBatchFactory {
    fn name(&self) -> &'static str {
        "clockwork-nobatch"
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(ClockworkScheduler::new(self.config))
    }
}

/// Factory for the FIFO ablation scheduler.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoFactory;

impl SchedulerFactory for FifoFactory {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(FifoScheduler::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_clockwork_and_fifo_in_order() {
        let registry = SchedulerRegistry::builtin();
        assert_eq!(registry.names(), vec!["clockwork", "fifo"]);
        assert_eq!(registry.len(), 2);
        let clockwork = registry.build("clockwork").expect("clockwork registered");
        assert_eq!(clockwork.name(), "clockwork");
        let fifo = registry.build("fifo").expect("fifo registered");
        assert_eq!(fifo.name(), "fifo");
        assert!(registry.build("nope").is_none());
    }

    #[test]
    fn default_exec_modes_follow_the_discipline() {
        assert_eq!(
            ClockworkFactory::default().default_exec_mode(),
            ExecMode::Exclusive
        );
        assert_eq!(FifoFactory.default_exec_mode(), ExecMode::Exclusive);
    }

    #[test]
    fn re_registration_replaces_in_place() {
        let mut registry = SchedulerRegistry::builtin();
        let tuned = ClockworkSchedulerConfig {
            tier_aware: false,
            ..Default::default()
        };
        registry.register(Box::new(ClockworkFactory::new(tuned)));
        assert_eq!(
            registry.names(),
            vec!["clockwork", "fifo"],
            "replacement keeps order and does not duplicate"
        );
        let factory = registry.get("clockwork").unwrap();
        let built = factory.build();
        let concrete = built
            .as_any()
            .downcast_ref::<ClockworkScheduler>()
            .expect("clockwork factory builds ClockworkScheduler");
        assert!(!concrete.config().tier_aware);
    }
}
