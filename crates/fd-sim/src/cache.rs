//! World reuse: the one reset-or-build cache every plan runner goes
//! through.

use crate::actor::Actor;
use crate::process::ProcessId;
use crate::topology::NetworkConfig;
use crate::world::{World, WorldBuilder, WorldObs};

/// One reusable [`World`] per actor type.
///
/// A seed sweep pays for the event queue, actor vector, and trace arena
/// once: the first [`arm`](WorldCache::arm) builds a world, every later
/// one re-arms it with [`World::reset`]. Runs in a re-armed world are
/// byte-identical to runs in a fresh one, so reuse is invisible in every
/// digest.
///
/// Like the [`World`] in it (queued broadcast payloads are `Rc`-shared), a
/// cache is `!Send`, and so is every executor holding one: each campaign
/// worker makes its own.
pub struct WorldCache<A: Actor> {
    /// Applies the per-world settings (trace mode, queue implementation,
    /// event budget, state tracking) to the builder of a fresh world. A
    /// reset keeps them, so they are only needed on the build path.
    configure: Box<dyn Fn(WorldBuilder) -> WorldBuilder>,
    /// The cached world and the identity of the registry it reports into
    /// (null = unobserved). Instrumentation handles are resolved at build
    /// time, so a different registry — or toggling observation — forces a
    /// rebuild instead of reusing a mismatched world. The identity is an
    /// address: a registry must outlive every run armed with it.
    world: Option<(World<A>, *const fd_obs::Registry)>,
}

impl<A: Actor> Default for WorldCache<A> {
    /// A cache of worlds with the builder's default settings.
    fn default() -> Self {
        WorldCache::new(|builder| builder)
    }
}

impl<A: Actor> WorldCache<A> {
    /// A cache whose worlds are built with the settings `configure`
    /// applies. Only settings belong there: seed, network, crashes, and
    /// instrumentation are per run and come from [`arm`](WorldCache::arm).
    pub fn new(configure: impl Fn(WorldBuilder) -> WorldBuilder + 'static) -> Self {
        WorldCache {
            configure: Box::new(configure),
            world: None,
        }
    }

    /// A world armed for a fresh run of `seed` over `net` with actors
    /// from `make(pid, n)`, reporting into `obs` when given: the cached
    /// world reset, or a new one built. Nothing is scheduled yet.
    pub fn arm(
        &mut self,
        net: NetworkConfig,
        seed: u64,
        obs: Option<&fd_obs::Registry>,
        make: impl FnMut(ProcessId, usize) -> A,
    ) -> &mut World<A> {
        let key = obs.map_or(std::ptr::null(), |r| r as *const fd_obs::Registry);
        match &mut self.world {
            Some((world, k)) if *k == key => world.reset(net, seed, make),
            slot => {
                let mut builder = (self.configure)(WorldBuilder::new(net)).seed(seed);
                if let Some(registry) = obs {
                    builder = builder.observe(WorldObs::new(registry));
                }
                *slot = Some((builder.build(make), key));
            }
        }
        &mut self.world.as_mut().expect("world just armed").0
    }
}
