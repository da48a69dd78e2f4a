//! The one place a node's replication role changes: a plain-data
//! [`RoleState`] and a pure [`step`] from `(state, now, event)` to
//! `(next state, effects)`.
//!
//! `tracond` (`follower::Node::drive`) runs the effects against
//! real files, sockets and shard workers; the deterministic, test-only
//! `repl::sim` harness runs the same effects against journals and a
//! virtual link. Neither decides anything: every epoch comparison, the
//! leader-side follower slot and write suspension, the follower-side
//! lease, cursors and boot nonce, the boot matrix and the rejoin all
//! live here. Effects come out in one fixed order, which is where the
//! two ordering rules hold: a *required* persist precedes the publish it
//! backs (a claimed epoch is durable before any request is served under
//! it), and a publish stores epoch and redirect hint before the role (a
//! node never refuses writes without knowing where to send them). When a
//! required effect fails the interpreter throws the proposed state away,
//! so the next `Tick` proposes it again.

use super::{EpochSidecar, Role};

/// The leader's one follower slot. The first address to pull takes it
/// for as long as this node leads: epochs are claimed as `observed + 1`
/// with no tiebreaker, so two synced followers could promote to the same
/// epoch and never fence each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// The registered follower's address.
    pub holder: String,
    /// When it last pulled.
    pub last_pull_ms: u64,
    /// It has been silent for the TTL and may have promoted: mutations
    /// are refused until it pulls again at an epoch that proves it has
    /// not.
    pub suspended: bool,
}

/// What a node holds only while it is in one role, so leaving the role
/// forgets it: a follower has no slot and a leader no cursors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Serving mutations and pulls.
    Leader {
        /// The registered follower, if one has pulled.
        slot: Option<Slot>,
        /// Suspension TTL: the configured one, tightened (never
        /// loosened) to the promotion TTL pullers advertise, so this
        /// node suspends no later than its follower promotes.
        ttl_ms: u64,
    },
    /// Pulling from `RoleState::leader`.
    Follower {
        /// Next ship sequence number to pull, per shard.
        cursors: Vec<u64>,
        /// Boot nonce of the leader incarnation the cursors refer to.
        boot: Option<u64>,
        /// Arrival time of the last accepted chunk.
        last_contact_ms: u64,
        /// A chunk was accepted at least once. A follower that never
        /// reached its leader may not promote: the claimed epoch must
        /// exceed the leader's, which requires having observed it.
        synced: bool,
    },
    /// Outranked: redirects mutations until a live leader answers the
    /// rejoin probe.
    Fenced,
}

/// Everything that decides who may write. Plain data: cloning it is the
/// proposal, replacing it is the commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleState {
    /// This node's own protocol address.
    pub me: String,
    /// Configured lease TTL.
    pub ttl_ms: u64,
    /// Shard count (one pull cursor each).
    pub shards: usize,
    /// Highest epoch claimed or observed; never decreases.
    pub epoch: u64,
    /// Best-known leader: the redirect hint, and whom a follower pulls.
    pub leader: Option<String>,
    /// The node this one last paired with: its follower for a leader,
    /// the deposed leader for a promoted node. Probed at boot.
    pub peer: Option<String>,
    /// Role and the data that exists only in it.
    pub mode: Mode,
}

/// Everything that can happen to a node's role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoleEvent {
    /// The process started, on a state rebuilt by
    /// [`RoleState::from_sidecar`].
    Boot {
        /// `--replica-of`: follow this address instead of leading.
        replica_of: Option<String>,
        /// The `(epoch, role)` answer to [`RoleState::probe`], if any.
        probe: Option<(u64, Role)>,
    },
    /// Time passed.
    Tick,
    /// A `repl_pull` arrived.
    Pull {
        /// The puller's epoch.
        epoch: u64,
        /// The puller's address.
        addr: String,
        /// The puller's promotion TTL; 0 marks a read-only observer.
        ttl_ms: u64,
    },
    /// A `repl_lease` claim arrived.
    Lease {
        /// The claimed epoch.
        epoch: u64,
        /// The claimant.
        leader_addr: String,
    },
    /// A pull reply's header arrived.
    Chunk {
        /// The shard it answers for.
        shard: usize,
        /// The leader's epoch.
        epoch: u64,
        /// The leader's boot nonce.
        boot: u64,
        /// The cursor after applying the chunk.
        next: u64,
    },
    /// The polled node answered `not_leader` with this hint.
    NotLeaderHint {
        /// Where it says the leader is.
        leader_addr: String,
    },
    /// A fenced node's [`RoleState::probe`] of its leader hint answered.
    ProbeResult {
        /// The hinted node's epoch.
        epoch: u64,
        /// The hinted node's role.
        role: Role,
    },
    /// One shard's local copy was lost (scrub quarantine, failed
    /// install): pull it again from zero. Cursor 0 is always behind the
    /// leader's compaction horizon, so the answer is a snapshot install.
    CursorLost {
        /// The shard to pull again.
        shard: usize,
    },
}

/// How the receiver of a `repl_pull` answers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullVerdict {
    /// The registered follower: ship a chunk.
    Serve,
    /// A puller that can never promote (`ttl_ms` 0): ship a chunk, no
    /// slot, no lease, no suspension on its behalf.
    Observer,
    /// Not leading: redirect to the published hint.
    NotLeader,
    /// Another follower holds the slot.
    Conflict {
        /// The registered follower's address.
        holder: String,
    },
}

/// What the interpreter must do, in this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// A fenced node rejoins as a follower: every shard worker drops its
    /// state and WAL handle and the shard files are wiped.
    DemoteShards,
    /// Write the sidecar. A failed `required` write discards the step.
    Persist {
        /// Exactly the durable part of the proposed state.
        sidecar: EpochSidecar,
        /// Whether the step may proceed without it.
        required: bool,
    },
    /// A follower takes over: replay the shipped WALs and hand every
    /// shard worker its state and log.
    PromoteShards,
    /// Make the proposed state visible to the lock-free mutation gate.
    Publish {
        /// The new role.
        role: Role,
        /// The new epoch.
        epoch: u64,
        /// Where refused mutations are redirected.
        hint: Option<String>,
        /// A leader that must not ack mutations right now.
        suspended: bool,
        /// Why (`event=role ... cause=`).
        cause: &'static str,
    },
    /// Tell the deposed leader, so its clients redirect within a round
    /// trip instead of a TTL. Safety does not depend on it arriving.
    SendLease {
        /// The deposed leader.
        to: String,
        /// The claimed epoch.
        epoch: u64,
    },
    /// Install the chunk body this header came with.
    ApplyChunk,
    /// The leader rebooted and renumbered its ship log: every cursor
    /// went back to zero, drop the chunk body.
    ResetCursors,
    /// The answer to the `repl_pull` being served.
    Pull(PullVerdict),
}

impl RoleState {
    /// The state a process starts from: whatever its sidecar last said
    /// (defaults for a fresh node), before [`RoleEvent::Boot`] decides
    /// what that is worth now.
    pub fn from_sidecar(
        me: &str,
        ttl_ms: u64,
        shards: usize,
        sidecar: &EpochSidecar,
        now_ms: u64,
    ) -> RoleState {
        let mut state = RoleState {
            me: me.to_string(),
            ttl_ms: ttl_ms.max(1),
            shards: shards.max(1),
            epoch: sidecar.epoch,
            leader: sidecar.leader.clone(),
            peer: sidecar.peer.clone(),
            mode: Mode::Fenced,
        };
        match sidecar.role {
            Role::Leader => state.lead(),
            Role::Follower => state.follow(now_ms),
            Role::Fenced => {}
        }
        state
    }

    /// The role, without its data.
    pub fn role(&self) -> Role {
        match self.mode {
            Mode::Leader { .. } => Role::Leader,
            Mode::Follower { .. } => Role::Follower,
            Mode::Fenced => Role::Fenced,
        }
    }

    /// Whether `submit`/`complete` may be acked: leading, and the
    /// registered follower is not silent past the TTL.
    pub fn admits(&self) -> bool {
        match &self.mode {
            Mode::Leader { slot, .. } => !slot.as_ref().is_some_and(|s| s.suspended),
            _ => false,
        }
    }

    /// Where a refused mutation is sent: the silent follower when
    /// suspended (the one node that may have promoted), else the leader.
    pub fn hint(&self) -> Option<&str> {
        match &self.mode {
            Mode::Leader {
                slot: Some(slot), ..
            } if slot.suspended => Some(&slot.holder),
            _ => self.leader.as_deref(),
        }
    }

    /// A follower's pull cursor for `shard`.
    pub fn cursor(&self, shard: usize) -> u64 {
        match &self.mode {
            Mode::Follower { cursors, .. } => cursors.get(shard).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Whether a follower has ever accepted a chunk.
    pub fn synced(&self) -> bool {
        matches!(self.mode, Mode::Follower { synced: true, .. })
    }

    /// The durable part of the state.
    pub fn sidecar(&self) -> EpochSidecar {
        EpochSidecar {
            epoch: self.epoch,
            role: self.role(),
            leader: self.leader.clone(),
            peer: self.peer.clone(),
        }
    }

    /// Whom to ask, and at which epoch, before the next role decision: a
    /// leader its follower and a follower its leader (before
    /// [`RoleEvent::Boot`] without `--replica-of`), a fenced node its
    /// leader hint (before [`RoleEvent::ProbeResult`]; at boot it stays
    /// fenced unasked). The probe is a `repl_lease` one epoch *below* our
    /// own: too low to fence a healthy peer, and the reply carries its
    /// epoch and role.
    pub fn probe(&self, booting: bool) -> Option<(&str, u64)> {
        let target = match self.mode {
            Mode::Leader { .. } => self.peer.as_deref(),
            Mode::Follower { .. } => self.leader.as_deref(),
            Mode::Fenced if booting => None,
            Mode::Fenced => self.leader.as_deref(),
        };
        let target = target.filter(|addr| *addr != self.me)?;
        Some((target, self.epoch.saturating_sub(1)))
    }

    /// What [`Effect::Persist`] is owed a change of, without building it.
    fn durable(&self) -> (u64, Role, &Option<String>, &Option<String>) {
        (self.epoch, self.role(), &self.leader, &self.peer)
    }

    /// What [`Effect::Publish`] is owed a change of.
    fn published(&self) -> (Role, u64, Option<&str>, bool) {
        (self.role(), self.epoch, self.hint(), self.admits())
    }

    fn lead(&mut self) {
        self.mode = Mode::Leader {
            slot: None,
            ttl_ms: self.ttl_ms,
        };
    }

    fn follow(&mut self, now_ms: u64) {
        self.mode = Mode::Follower {
            cursors: vec![0; self.shards],
            boot: None,
            last_contact_ms: now_ms,
            synced: false,
        };
    }

    /// `epoch` exists elsewhere: adopt it and the hint that came with
    /// it. A leader steps down; anyone else only learns where to point.
    fn outranked(&mut self, epoch: u64, leader: Option<String>) {
        self.epoch = self.epoch.max(epoch);
        if leader.is_some() {
            self.leader = leader;
        }
        if self.role() == Role::Leader {
            self.mode = Mode::Fenced;
        }
    }
}

/// Apply one event. Pure: the caller commits the returned state once the
/// returned effects have run.
pub fn step(cur: &RoleState, now_ms: u64, event: RoleEvent) -> (RoleState, Vec<Effect>) {
    let mut next = cur.clone();
    let mut cause = "";
    let mut verdict = None;
    let booting = matches!(event, RoleEvent::Boot { .. });
    match event {
        RoleEvent::Boot { replica_of, probe } => {
            cause = "boot";
            let outranks = |(epoch, role): &(u64, Role)| {
                *epoch > cur.epoch || (*epoch == cur.epoch && *role == Role::Leader)
            };
            if let Some(leader) = replica_of {
                next.leader = Some(leader);
                next.follow(now_ms);
            } else if let Some((epoch, _)) = probe.filter(outranks) {
                cause = "boot_probe";
                next.leader = cur.probe(true).map(|(addr, _)| addr.to_string());
                next.epoch = epoch;
                next.mode = Mode::Fenced;
            } else if cur.role() == Role::Leader {
                // Epoch 0 is "never led": a fresh leader starts at 1.
                next.epoch = cur.epoch.max(1);
                next.leader = None;
            } else if cur.role() == Role::Follower {
                // A follower restarted standalone and its leader did not
                // answer: take over exactly like a live promotion.
                next.epoch = cur.epoch + 1;
                next.peer = next.leader.take();
                next.lead();
            }
        }
        RoleEvent::Tick => match &mut next.mode {
            Mode::Leader {
                slot: Some(slot),
                ttl_ms,
            } if now_ms.saturating_sub(slot.last_pull_ms) >= *ttl_ms => slot.suspended = true,
            Mode::Follower {
                last_contact_ms,
                synced: true,
                ..
            } if now_ms.saturating_sub(*last_contact_ms) >= cur.ttl_ms => {
                // Strictly above every epoch the old leader served at:
                // it cannot have served at a higher one unobserved,
                // because epochs only change on durable claims.
                cause = "lease_lapsed";
                next.epoch = cur.epoch + 1;
                next.peer = next.leader.replace(cur.me.clone());
                next.lead();
            }
            _ => {}
        },
        RoleEvent::Pull {
            epoch,
            addr,
            ttl_ms: puller_ttl,
        } => {
            if epoch > cur.epoch {
                // Only a promotion this node missed mints a higher one.
                cause = "pull_epoch";
                next.outranked(epoch, None);
            }
            // From here the puller's epoch is at most ours, which proves
            // it has not promoted (a promotion durably claims a higher
            // one first) — so renewing its lease and lifting a
            // suspension is safe.
            verdict = Some(Effect::Pull(match &mut next.mode {
                Mode::Leader { .. } if puller_ttl == 0 => PullVerdict::Observer,
                Mode::Leader { slot, ttl_ms } => {
                    *ttl_ms = (*ttl_ms).min(puller_ttl);
                    match slot {
                        Some(slot) if slot.holder != addr => PullVerdict::Conflict {
                            holder: slot.holder.clone(),
                        },
                        Some(slot) => {
                            slot.last_pull_ms = now_ms;
                            slot.suspended = false;
                            PullVerdict::Serve
                        }
                        None => {
                            // Registering: the peer to probe at boot.
                            next.peer = Some(addr.clone());
                            *slot = Some(Slot {
                                holder: addr,
                                last_pull_ms: now_ms,
                                suspended: false,
                            });
                            PullVerdict::Serve
                        }
                    }
                }
                _ => PullVerdict::NotLeader,
            }));
        }
        RoleEvent::Lease { epoch, leader_addr } => {
            // Equal counts: the claimant durably claimed it, so if we
            // lead at it we are the stale one.
            if epoch >= cur.epoch && leader_addr != cur.me {
                cause = "lease";
                next.outranked(epoch, Some(leader_addr));
            }
        }
        RoleEvent::Chunk {
            shard,
            epoch,
            boot: leader_boot,
            next: cursor,
        } => {
            if let Mode::Follower {
                cursors,
                boot,
                last_contact_ms,
                synced,
            } = &mut next.mode
            {
                if epoch >= cur.epoch {
                    let rebooted = boot.is_some_and(|seen| seen != leader_boot);
                    *boot = Some(leader_boot);
                    *last_contact_ms = now_ms;
                    *synced = true;
                    next.epoch = epoch;
                    verdict = Some(if rebooted {
                        cursors.fill(0);
                        Effect::ResetCursors
                    } else {
                        if let Some(slot) = cursors.get_mut(shard) {
                            *slot = cursor;
                        }
                        Effect::ApplyChunk
                    });
                }
            }
        }
        RoleEvent::NotLeaderHint { leader_addr } => {
            if cur.role() == Role::Follower && leader_addr != cur.me {
                next.leader = Some(leader_addr);
            }
        }
        RoleEvent::ProbeResult { epoch, role } => {
            let asked = cur.role() == Role::Fenced && cur.probe(false).is_some();
            if asked && role == Role::Leader && epoch >= cur.epoch {
                cause = "rejoin";
                next.follow(now_ms);
            }
        }
        RoleEvent::CursorLost { shard } => {
            if let Mode::Follower { cursors, .. } = &mut next.mode {
                if let Some(cursor) = cursors.get_mut(shard) {
                    *cursor = 0;
                }
            }
        }
    }
    finish(cur, next, cause, booting, verdict)
}

/// Derive the effects of `cur -> next` in the one order they may run.
fn finish(
    cur: &RoleState,
    next: RoleState,
    cause: &'static str,
    booting: bool,
    verdict: Option<Effect>,
) -> (RoleState, Vec<Effect>) {
    let promoted = !booting && cur.role() == Role::Follower && next.role() == Role::Leader;
    let rejoined = !booting && cur.role() == Role::Fenced && next.role() == Role::Follower;
    let mut effects = Vec::new();
    if rejoined {
        effects.push(Effect::DemoteShards);
    }
    if booting || next.durable() != cur.durable() {
        effects.push(Effect::Persist {
            sidecar: next.sidecar(),
            required: booting || promoted,
        });
    }
    if promoted {
        effects.push(Effect::PromoteShards);
    }
    if booting || next.published() != cur.published() {
        effects.push(Effect::Publish {
            role: next.role(),
            epoch: next.epoch,
            hint: next.hint().map(str::to_string),
            suspended: next.role() == Role::Leader && !next.admits(),
            cause,
        });
    }
    if let (true, Some(to)) = (promoted, &next.peer) {
        effects.push(Effect::SendLease {
            to: to.clone(),
            epoch: next.epoch,
        });
    }
    effects.extend(verdict);
    (next, effects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracon_stats::prng::{check_cases, ChaCha12};

    fn sidecar(role: Role, epoch: u64, leader: Option<&str>, peer: Option<&str>) -> EpochSidecar {
        EpochSidecar {
            epoch,
            role,
            leader: leader.map(str::to_string),
            peer: peer.map(str::to_string),
        }
    }

    /// A node at `me:1` whose sidecar says `role` at `epoch`, TTL 100.
    fn node(role: Role, epoch: u64, leader: Option<&str>, peer: Option<&str>) -> RoleState {
        RoleState::from_sidecar("me:1", 100, 2, &sidecar(role, epoch, leader, peer), 0)
    }

    /// Step in place and hand back the effects.
    fn apply(state: &mut RoleState, now_ms: u64, event: RoleEvent) -> Vec<Effect> {
        let (next, effects) = step(state, now_ms, event);
        *state = next;
        effects
    }

    fn pull(addr: &str, ttl_ms: u64) -> RoleEvent {
        let addr = addr.to_string();
        RoleEvent::Pull {
            epoch: 1,
            addr,
            ttl_ms,
        }
    }

    fn verdict(effects: &[Effect]) -> Option<&PullVerdict> {
        match effects.last() {
            Some(Effect::Pull(verdict)) => Some(verdict),
            _ => None,
        }
    }

    // The leader's slot and write suspension.

    #[test]
    fn first_follower_takes_the_slot_and_silence_suspends_writes() {
        let mut leader = node(Role::Leader, 1, None, None);
        // No follower registered: silence alone never suspends.
        assert_eq!(apply(&mut leader, 10_000, RoleEvent::Tick), []);
        let effects = apply(&mut leader, 50, pull("10.0.0.2:7400", 100));
        assert_eq!(verdict(&effects), Some(&PullVerdict::Serve));
        // Registering is worth persisting: the peer to probe at boot.
        assert!(
            matches!(&effects[0], Effect::Persist { sidecar, required: false }
            if sidecar.peer.as_deref() == Some("10.0.0.2:7400"))
        );
        apply(&mut leader, 149, RoleEvent::Tick);
        assert!(leader.admits());
        let effects = apply(&mut leader, 150, RoleEvent::Tick);
        assert!(!leader.admits(), "TTL of silence must suspend writes");
        assert!(
            matches!(&effects[..], [Effect::Publish { role: Role::Leader, suspended: true, hint, .. }]
            if hint.as_deref() == Some("10.0.0.2:7400"))
        );
        // Only the first lapse reports a transition.
        assert_eq!(apply(&mut leader, 500, RoleEvent::Tick), []);
    }

    #[test]
    fn a_pull_from_the_holder_renews_and_resumes() {
        let mut leader = node(Role::Leader, 1, None, None);
        apply(&mut leader, 0, pull("f1", 100));
        apply(&mut leader, 100, RoleEvent::Tick);
        assert!(!leader.admits());
        // The holder turns out to be alive (and, by its epoch, provably
        // unpromoted): writes resume.
        let effects = apply(&mut leader, 120, pull("f1", 100));
        assert_eq!(verdict(&effects), Some(&PullVerdict::Serve));
        assert!(matches!(
            effects[0],
            Effect::Publish {
                suspended: false,
                ..
            }
        ));
        assert!(leader.admits());
        assert_eq!(leader.hint(), None);
        apply(&mut leader, 219, RoleEvent::Tick);
        assert!(leader.admits());
        apply(&mut leader, 220, RoleEvent::Tick);
        assert!(!leader.admits());
    }

    #[test]
    fn the_ttl_tightens_to_the_pullers_but_never_loosens() {
        let mut leader = node(Role::Leader, 1, None, None);
        leader.ttl_ms = 1_500;
        leader.lead();
        apply(&mut leader, 0, pull("f1", 1_500));
        apply(&mut leader, 1_499, RoleEvent::Tick);
        assert!(leader.admits());
        apply(&mut leader, 2_000, pull("f1", 1_200));
        apply(&mut leader, 2_100, pull("f1", 1_500)); // looser advert changes nothing
        apply(&mut leader, 3_299, RoleEvent::Tick);
        assert!(leader.admits());
        apply(&mut leader, 3_300, RoleEvent::Tick);
        assert!(!leader.admits(), "suspension must run on the tighter TTL");
    }

    #[test]
    fn a_second_follower_is_refused_even_after_the_holder_lapses() {
        let mut leader = node(Role::Leader, 1, None, None);
        apply(&mut leader, 0, pull("f1", 100));
        let conflict = PullVerdict::Conflict {
            holder: "f1".into(),
        };
        assert_eq!(
            verdict(&apply(&mut leader, 10, pull("f2", 100))),
            Some(&conflict)
        );
        // The slot stays with the (possibly promoted) holder even once
        // it is silent: handing it to f2 could mint a second synced
        // follower and, with it, an equal-epoch split brain.
        apply(&mut leader, 200, RoleEvent::Tick);
        assert_eq!(
            verdict(&apply(&mut leader, 300, pull("f2", 100))),
            Some(&conflict)
        );
        assert_eq!(leader.hint(), Some("f1"));
        // And an observer is served without touching any of it.
        let before = leader.clone();
        let effects = apply(&mut leader, 310, pull("bench", 0));
        assert_eq!(effects, [Effect::Pull(PullVerdict::Observer)]);
        assert_eq!(leader, before);
    }

    // The follower's lease, cursors and boot nonce.

    fn chunk(shard: usize, epoch: u64, boot: u64, next: u64) -> RoleEvent {
        RoleEvent::Chunk {
            shard,
            epoch,
            boot,
            next,
        }
    }

    #[test]
    fn lease_renews_on_chunks_and_lapses_when_silent() {
        let mut follower = node(Role::Follower, 0, Some("l:1"), None);
        // Never synced: silence alone must NOT promote.
        assert_eq!(apply(&mut follower, 10_000, RoleEvent::Tick), []);
        // First contact observes epoch 1 (we booted at 0): persist it.
        let effects = apply(&mut follower, 50, chunk(0, 1, 7, 5));
        assert!(matches!(&effects[..], [
            Effect::Persist { sidecar, required: false },
            Effect::Publish { role: Role::Follower, epoch: 1, .. },
            Effect::ApplyChunk,
        ] if sidecar.epoch == 1));
        assert_eq!(follower.cursor(0), 5);
        assert_eq!(apply(&mut follower, 149, RoleEvent::Tick), []);
        // Same epoch: nothing to persist or publish.
        assert_eq!(
            apply(&mut follower, 200, chunk(0, 1, 7, 9)),
            [Effect::ApplyChunk]
        );
        assert_eq!(apply(&mut follower, 299, RoleEvent::Tick), []);
        // Silent for the TTL: claim the next epoch — durably, before the
        // shards are handed over, before anything is served under it,
        // and only then tell the deposed leader.
        let effects = apply(&mut follower, 300, RoleEvent::Tick);
        let claim = sidecar(Role::Leader, 2, Some("me:1"), Some("l:1"));
        assert!(matches!(&effects[..], [
            Effect::Persist { sidecar, required: true },
            Effect::PromoteShards,
            Effect::Publish { role: Role::Leader, epoch: 2, suspended: false, cause: "lease_lapsed", .. },
            Effect::SendLease { to, epoch: 2 },
        ] if *sidecar == claim && to == "l:1"));
        assert!(follower.admits());
    }

    #[test]
    fn older_epochs_are_dropped() {
        let mut follower = node(Role::Follower, 5, Some("l:1"), None);
        assert_eq!(apply(&mut follower, 10, chunk(0, 4, 7, 9)), []);
        assert_eq!(
            follower.cursor(0),
            0,
            "stale chunk must not move the cursor"
        );
        assert!(!follower.synced(), "stale contact must not arm the lease");
    }

    #[test]
    fn leader_reboot_resets_cursors() {
        let mut follower = node(Role::Follower, 0, Some("l:1"), None);
        apply(&mut follower, 10, chunk(0, 1, 7, 40));
        apply(&mut follower, 10, chunk(1, 1, 7, 12));
        assert_eq!((follower.cursor(0), follower.cursor(1)), (40, 12));
        // Same epoch, new boot nonce: a restarted leader whose ship
        // numbering restarted — both cursors go home.
        assert_eq!(
            apply(&mut follower, 20, chunk(0, 1, 8, 3)),
            [Effect::ResetCursors]
        );
        assert_eq!((follower.cursor(0), follower.cursor(1)), (0, 0));
        // And the next chunk from the new incarnation applies normally.
        assert_eq!(
            apply(&mut follower, 30, chunk(0, 1, 8, 3)),
            [Effect::ApplyChunk]
        );
        assert_eq!(follower.cursor(0), 3);
        // A lost local copy sends one cursor home.
        apply(&mut follower, 40, RoleEvent::CursorLost { shard: 0 });
        assert_eq!(follower.cursor(0), 0);
    }

    // Fencing and observation.

    fn lease(epoch: u64, from: &str) -> RoleEvent {
        let leader_addr = from.to_string();
        RoleEvent::Lease { epoch, leader_addr }
    }

    #[test]
    fn observe_leader_adopts_epoch_and_hint_without_fencing() {
        let mut follower = node(Role::Follower, 3, Some("old:1"), None);
        apply(&mut follower, 0, lease(5, "new:2"));
        assert_eq!(
            follower.role(),
            Role::Follower,
            "observation must not fence"
        );
        assert_eq!(follower.epoch, 5);
        assert_eq!(follower.hint(), Some("new:2"));
        // A stale observation neither regresses the epoch nor changes
        // the address.
        assert_eq!(apply(&mut follower, 0, lease(4, "older:3")), []);
        assert_eq!(follower.epoch, 5);
        assert_eq!(follower.hint(), Some("new:2"));
    }

    #[test]
    fn fence_is_sticky_and_epochs_never_regress() {
        let mut leader = node(Role::Leader, 3, None, None);
        let effects = apply(&mut leader, 0, lease(5, "10.0.0.2:4000"));
        // Hint and epoch are in the same publish as the role: gating
        // never engages without a redirect to hand out.
        assert!(matches!(&effects[..], [
            Effect::Persist { sidecar, required: false },
            Effect::Publish { role: Role::Fenced, epoch: 5, cause: "lease", hint, .. },
        ] if sidecar.role == Role::Fenced && hint.as_deref() == Some("10.0.0.2:4000")));
        assert!(!leader.admits());
        // An older epoch cannot drag the counter back down, and a pull
        // is refused with the redirect.
        let effects = apply(&mut leader, 0, pull("f1", 100));
        assert_eq!(effects, [Effect::Pull(PullVerdict::NotLeader)]);
        assert_eq!((leader.role(), leader.epoch), (Role::Fenced, 5));
        // A higher-epoch pull fences a leader too, keeping its hint.
        let mut leader = node(Role::Leader, 3, Some("me:1"), None);
        let effects = apply(
            &mut leader,
            0,
            RoleEvent::Pull {
                epoch: 4,
                addr: "f1".into(),
                ttl_ms: 100,
            },
        );
        assert_eq!(verdict(&effects), Some(&PullVerdict::NotLeader));
        assert_eq!((leader.role(), leader.epoch), (Role::Fenced, 4));
    }

    #[test]
    fn a_fenced_node_rejoins_only_a_live_leader_at_its_epoch_or_above() {
        let mut fenced = node(Role::Fenced, 5, Some("l:2"), Some("f:1"));
        assert_eq!(fenced.probe(false), Some(("l:2", 4)));
        let answer = |epoch, role| RoleEvent::ProbeResult { epoch, role };
        assert_eq!(apply(&mut fenced, 0, answer(5, Role::Fenced)), []);
        assert_eq!(apply(&mut fenced, 0, answer(4, Role::Leader)), []);
        let effects = apply(&mut fenced, 9, answer(5, Role::Leader));
        let follower = sidecar(Role::Follower, 5, Some("l:2"), Some("f:1"));
        assert!(matches!(&effects[..], [
            Effect::DemoteShards,
            Effect::Persist { sidecar, required: false },
            Effect::Publish { role: Role::Follower, cause: "rejoin", .. },
        ] if *sidecar == follower));
        assert!(!fenced.synced());
        // Its own address is never a leader to rejoin or chase.
        assert_eq!(node(Role::Fenced, 5, Some("me:1"), None).probe(false), None);
        let hint = RoleEvent::NotLeaderHint {
            leader_addr: "me:1".into(),
        };
        assert_eq!(apply(&mut fenced, 10, hint), []);
        let hint = RoleEvent::NotLeaderHint {
            leader_addr: "l:3".into(),
        };
        apply(&mut fenced, 10, hint);
        assert_eq!(fenced.hint(), Some("l:3"));
    }

    // The boot matrix.

    /// Boot a standalone node from `side`: which probe it asks, and —
    /// given `answer` to it — the sidecar it persists (required) before
    /// publishing anything.
    fn boot(
        side: &EpochSidecar,
        answer: Option<(u64, Role)>,
    ) -> (Option<(String, u64)>, EpochSidecar) {
        let state = RoleState::from_sidecar("me:1", 100, 1, side, 0);
        let asked = state
            .probe(true)
            .map(|(peer, epoch)| (peer.to_string(), epoch));
        let probe = asked.as_ref().and(answer);
        let (next, effects) = step(
            &state,
            0,
            RoleEvent::Boot {
                replica_of: None,
                probe,
            },
        );
        assert!(matches!(&effects[..], [
            Effect::Persist { sidecar, required: true },
            Effect::Publish { role, epoch, .. },
        ] if *sidecar == next.sidecar() && (*role, *epoch) == (sidecar.role, sidecar.epoch)));
        (asked, next.sidecar())
    }

    #[test]
    fn a_fresh_or_standalone_leader_claims_epoch_one() {
        let (asked, booted) = boot(&EpochSidecar::default(), None);
        assert_eq!(asked, None, "no peer to probe");
        assert_eq!(booted, sidecar(Role::Leader, 1, None, None));
    }

    #[test]
    fn a_leader_with_an_unreachable_peer_reclaims_its_own_epoch() {
        let (asked, booted) = boot(&sidecar(Role::Leader, 4, None, Some("f:1")), None);
        assert_eq!(asked, Some(("f:1".into(), 3)));
        assert_eq!(booted, sidecar(Role::Leader, 4, None, Some("f:1")));
    }

    #[test]
    fn a_rebooted_leader_is_fenced_by_its_promoted_follower() {
        // The crashed-leader-reboots hole: the follower promoted to
        // epoch 5 while this node (epoch 4) was down, and its bounded
        // lease retries all fired into the void. The boot probe is what
        // keeps this node from serving as a second leader.
        let side = sidecar(Role::Leader, 4, None, Some("f:1"));
        let (_, booted) = boot(&side, Some((5, Role::Leader)));
        assert_eq!(booted, sidecar(Role::Fenced, 5, Some("f:1"), Some("f:1")));
    }

    #[test]
    fn a_leader_whose_follower_is_still_following_leads_again() {
        let side = sidecar(Role::Leader, 4, None, Some("f:1"));
        let (_, booted) = boot(&side, Some((4, Role::Follower)));
        assert_eq!((booted.role, booted.epoch), (Role::Leader, 4));
    }

    #[test]
    fn a_follower_restarted_standalone_defers_to_its_live_leader() {
        // Restarting a follower without --replica-of must not mint a
        // second leader while the real one is alive at the same epoch.
        let side = sidecar(Role::Follower, 4, Some("l:1"), None);
        let (asked, booted) = boot(&side, Some((4, Role::Leader)));
        assert_eq!(asked, Some(("l:1".into(), 3)));
        assert_eq!(booted, sidecar(Role::Fenced, 4, Some("l:1"), None));
    }

    #[test]
    fn a_follower_restarted_standalone_outranks_its_dead_leader() {
        // Operator-driven failover: the old leader is gone, so convert
        // to leadership exactly like a live promotion — epoch + 1, with
        // the old leader recorded as the peer to keep fencing it.
        let (_, booted) = boot(&sidecar(Role::Follower, 4, Some("l:1"), None), None);
        assert_eq!(booted, sidecar(Role::Leader, 5, None, Some("l:1")));
    }

    #[test]
    fn a_fenced_node_stays_fenced_without_probing() {
        let side = sidecar(Role::Fenced, 6, Some("l:2"), Some("l:1"));
        let (asked, booted) = boot(&side, Some((9, Role::Leader)));
        assert_eq!(asked, None, "a fenced boot must not probe");
        assert_eq!(booted, side);
        // And `--replica-of` follows whatever the sidecar said.
        let state = RoleState::from_sidecar("me:1", 100, 1, &side, 0);
        let replica_of = Some("l:3".to_string());
        let (next, _) = step(
            &state,
            0,
            RoleEvent::Boot {
                replica_of,
                probe: None,
            },
        );
        assert_eq!(
            next.sidecar(),
            sidecar(Role::Follower, 6, Some("l:3"), Some("l:1"))
        );
    }

    // The pair, as histories.

    /// One-way messages of the pair model. A pull is not one of them: in
    /// the daemon it is a blocking round trip on the replication thread,
    /// which cannot tick while one is outstanding, so the model runs the
    /// request and its reply in the same millisecond or not at all.
    enum Msg {
        Lease { epoch: u64 },
        Reply { epoch: u64, role: Role },
    }

    /// Two `RoleState`s back to back: what is in memory (`None` while
    /// the process is dead), what is on disk, and the history checks.
    struct Pair<'a> {
        rng: &'a mut ChaCha12,
        now: u64,
        live: [Option<RoleState>; 2],
        disk: [EpochSidecar; 2],
        partitioned: bool,
        net: Vec<(u64, usize, Msg)>,
        /// Highest epoch each node ever admitted mutations at.
        admitted_at: [u64; 2],
        /// Highest epoch each node ever held, across reboots.
        seen: [u64; 2],
    }

    const TTL: u64 = 60;

    impl Pair<'_> {
        fn chance(&mut self, permille: usize) -> bool {
            self.rng.range_usize(0, 1000) < permille
        }

        /// Step node `i` and run its effects; `None` when it is dead or a
        /// required persist failed and the step was discarded.
        fn drive(&mut self, i: usize, event: RoleEvent) -> Option<Vec<Effect>> {
            let cur = self.live[i].clone()?;
            let (next, effects) = step(&cur, self.now, event.clone());
            assert!(next.epoch >= cur.epoch, "epoch went backwards on {event:?}");
            let leads = next.role() == Role::Leader;
            if matches!(event, RoleEvent::Lease { .. }) && cur.role() != Role::Leader {
                assert_eq!(next.role(), cur.role(), "a lease fenced a non-leader");
            }
            if matches!(event, RoleEvent::Pull { ttl_ms: 0, .. }) {
                let verdict = if leads {
                    PullVerdict::Observer
                } else {
                    PullVerdict::NotLeader
                };
                assert_eq!((&next, &effects[..]), (&cur, &[Effect::Pull(verdict)][..]));
            }
            if leads && cur.role() != Role::Leader {
                let order: Vec<u8> = effects
                    .iter()
                    .map(|effect| match effect {
                        Effect::Persist { required: true, .. } => 1,
                        Effect::PromoteShards => 2,
                        Effect::Publish {
                            role: Role::Leader, ..
                        } => 3,
                        Effect::SendLease { .. } => 4,
                        _ => 0,
                    })
                    .collect();
                assert_eq!(order, [1, 2, 3, 4], "a promotion out of order: {effects:?}");
            }
            for effect in &effects {
                match effect {
                    Effect::Persist { sidecar, required } => {
                        if *required && self.chance(200) {
                            return None;
                        }
                        self.disk[i] = sidecar.clone();
                    }
                    Effect::Publish {
                        role: Role::Leader,
                        epoch,
                        ..
                    } if !cur.admits() => {
                        assert_eq!(self.disk[i].epoch, *epoch, "published ahead of the claim");
                        let peers = self.admitted_at[1 - i];
                        assert!(
                            *epoch > peers || cur.role() == Role::Leader,
                            "claimed {epoch}, peer admitted at {peers}"
                        );
                    }
                    Effect::SendLease { epoch, .. } => {
                        for attempt in 0..3 {
                            let due = self.now + attempt * TTL + self.rng.range_usize(1, 9) as u64;
                            self.net.push((due, 1 - i, Msg::Lease { epoch: *epoch }));
                        }
                    }
                    _ => {}
                }
            }
            self.live[i] = Some(next);
            Some(effects)
        }

        /// A round trip from `i` to its peer, if the link carries it.
        fn reaches_peer(&mut self, i: usize) -> bool {
            !self.partitioned && self.live[1 - i].is_some() && !self.chance(100)
        }

        fn pull(&mut self, i: usize) {
            let me = self.live[i].clone().expect("alive");
            let event = RoleEvent::Pull {
                epoch: me.epoch,
                addr: me.me.clone(),
                ttl_ms: TTL,
            };
            let served = self.drive(1 - i, event).expect("no required effect");
            let peer = self.live[1 - i].clone().expect("alive");
            match served.last() {
                Some(Effect::Pull(PullVerdict::Serve)) => {
                    let next = me.cursor(0) + 1;
                    self.drive(
                        i,
                        RoleEvent::Chunk {
                            shard: 0,
                            epoch: peer.epoch,
                            boot: 7,
                            next,
                        },
                    );
                }
                Some(Effect::Pull(PullVerdict::NotLeader)) => {
                    if let Some(leader_addr) = peer.hint().map(str::to_string) {
                        self.drive(i, RoleEvent::NotLeaderHint { leader_addr });
                    }
                }
                other => panic!("the pair's own follower got {other:?}"),
            }
        }

        /// Restart dead node `i` from its disk. A node that would ask a
        /// probe comes back only while the asked node answers: booting
        /// into silence is DESIGN §13's stated limit (an unreachable peer
        /// is presumed dead), not something `step` can make safe. The one
        /// answer that lets an ex-leader lead again next to a *live*
        /// follower is left out too — its fresh slot is empty until that
        /// follower's next pull, so a partition in between would find it
        /// unsuspended.
        fn reboot(&mut self, i: usize) {
            let disk = self.disk[i].clone();
            let state = RoleState::from_sidecar(&format!("n{i}"), TTL, 1, &disk, self.now);
            let replica_of = (disk.role == Role::Follower).then(|| format!("n{}", 1 - i));
            let mut probe = None;
            if let (None, Some((_, epoch))) = (&replica_of, state.probe(true)) {
                if self.partitioned
                    || self.live[1 - i]
                        .as_ref()
                        .is_none_or(|p| p.role() != Role::Leader)
                {
                    return;
                }
                self.drive(
                    1 - i,
                    RoleEvent::Lease {
                        epoch,
                        leader_addr: state.me.clone(),
                    },
                );
                probe = self.live[1 - i].as_ref().map(|p| (p.epoch, p.role()));
            }
            assert!(
                state.epoch >= self.seen[i],
                "a reboot forgot epoch {}",
                self.seen[i]
            );
            self.live[i] = Some(state);
            if self
                .drive(i, RoleEvent::Boot { replica_of, probe })
                .is_none()
            {
                self.live[i] = None; // The boot's persist failed: refused.
            }
        }

        fn millisecond(&mut self) {
            self.now += 1;
            if self.chance(8) {
                self.partitioned = !self.partitioned;
            }
            let i = self.rng.range_usize(0, 2);
            match self.live[i].is_some() {
                true if self.chance(4) => self.live[i] = None,
                false if self.chance(30) => self.reboot(i),
                _ => {}
            }
            // Due one-way messages, in a shuffled order, unless lost.
            let mut due = Vec::new();
            for at in (0..self.net.len()).rev() {
                if self.net[at].0 <= self.now {
                    due.push(self.net.swap_remove(at));
                }
            }
            for (_, to, msg) in due {
                if self.partitioned || self.chance(150) {
                    continue;
                }
                let again = self.chance(100);
                for _ in 0..=usize::from(again) {
                    match msg {
                        Msg::Lease { epoch } => {
                            let leader_addr = format!("n{}", 1 - to);
                            if self
                                .drive(to, RoleEvent::Lease { epoch, leader_addr })
                                .is_some()
                            {
                                let at = self.live[to].as_ref().expect("alive");
                                let reply = Msg::Reply {
                                    epoch: at.epoch,
                                    role: at.role(),
                                };
                                let due = self.now + self.rng.range_usize(1, 9) as u64;
                                self.net.push((due, 1 - to, reply));
                            }
                        }
                        Msg::Reply { epoch, role } => {
                            self.drive(to, RoleEvent::ProbeResult { epoch, role });
                        }
                    }
                }
            }
            for i in 0..2 {
                self.drive(i, RoleEvent::Tick);
                let Some(state) = self.live[i].clone() else {
                    continue;
                };
                let on_cadence = (self.now + i as u64).is_multiple_of(7);
                let role = state.role();
                if role == Role::Follower && on_cadence && self.reaches_peer(i) {
                    self.pull(i);
                    if self.chance(100) {
                        self.pull(i); // A duplicated request.
                    }
                }
                if let (Role::Fenced, true, Some((_, epoch))) =
                    (role, on_cadence, state.probe(false))
                {
                    let due = self.now + self.rng.range_usize(1, 9) as u64;
                    self.net.push((due, 1 - i, Msg::Lease { epoch }));
                }
                if role == Role::Leader && self.chance(20) {
                    // Strangers: an observer, and a second follower once
                    // the slot is taken (even by a lapsed holder).
                    self.drive(
                        i,
                        RoleEvent::Pull {
                            epoch: 0,
                            addr: "obs".into(),
                            ttl_ms: 0,
                        },
                    );
                    if let Mode::Leader {
                        slot: Some(slot), ..
                    } = &state.mode
                    {
                        let holder = slot.holder.clone();
                        let stranger = RoleEvent::Pull {
                            epoch: 0,
                            addr: "x".into(),
                            ttl_ms: TTL,
                        };
                        let effects = self.drive(i, stranger).expect("alive");
                        let verdict = Effect::Pull(PullVerdict::Conflict { holder });
                        assert_eq!(effects.last(), Some(&verdict));
                    }
                }
            }
            let mut writers = 0;
            for (i, state) in self.live.iter().enumerate() {
                let Some(state) = state else { continue };
                self.seen[i] = self.seen[i].max(state.epoch);
                if state.admits() {
                    writers += 1;
                    self.admitted_at[i] = self.admitted_at[i].max(state.epoch);
                }
            }
            assert!(writers < 2, "both nodes admit mutations at {} ms", self.now);
        }
    }

    /// Two role machines wired back to back through a seeded link that
    /// drops, duplicates, delays and reorders, partitions, and kills and
    /// reboots either side from its last *persisted* sidecar with
    /// required persists failing at random. Checked on the recorded
    /// history, every step and every millisecond, not on the end state.
    #[test]
    fn pair_histories_keep_one_writer_and_growing_epochs() {
        let mut failovers = 0u64;
        check_cases(0..2_000, |rng| {
            let mut pair = Pair {
                rng,
                now: 0,
                live: [None, None],
                disk: [
                    EpochSidecar::default(),
                    sidecar(Role::Follower, 0, Some("n0"), None),
                ],
                partitioned: false,
                net: Vec::new(),
                admitted_at: [0; 2],
                seen: [0; 2],
            };
            pair.reboot(0);
            pair.reboot(1);
            for _ in 0..700 {
                pair.millisecond();
            }
            failovers += pair.seen[0].max(pair.seen[1]).saturating_sub(1);
        });
        // The histories are not vacuous: leadership changed hands.
        assert!(
            failovers > 2_000,
            "only {failovers} failovers in 2000 histories"
        );
    }
}
