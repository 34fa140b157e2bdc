// The application-facing interface of a k-out-of-ℓ exclusion process,
// taken verbatim from the paper (Section 2, "Interface"):
//
//   State ∈ {Req, In, Out}  -- Out→Req is the application's move (request()),
//                              Req→In and In→Out are the protocol's moves.
//   Need ∈ {0..k}           -- units currently requested.
//   EnterCS()               -- protocol→application upcall; here surfaced as
//                              Listener::on_enter_cs.
//   ReleaseCS()             -- application→protocol predicate; here the
//                              application calls release(), which makes the
//                              predicate hold until the protocol acts on it.
//
// Every exclusion protocol in this repository (tree ladder variants, ring
// baseline) implements ExclusionParticipant so workloads, monitors and
// statistics are protocol-agnostic.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "support/rng.hpp"

namespace klex::proto {

using NodeId = std::int32_t;

enum class AppState : std::int8_t { kOut = 0, kReq = 1, kIn = 2 };

const char* app_state_name(AppState state);

/// Introspection snapshot of one process's protocol variables; used by the
/// global token census, the verifiers and the debug traces.
struct LocalSnapshot {
  AppState state = AppState::kOut;
  int need = 0;
  int rset_size = 0;        // |RSet| = reserved resource tokens
  bool holds_priority = false;  // Prio ≠ ⊥
  bool reset = false;       // root only; false elsewhere
  std::int32_t myc = 0;     // counter-flushing flag value
  int succ = 0;             // DFS successor pointer
  int stoken = 0;           // root only: SToken
  int spush = 0;            // root only: SPush
  int sprio = 0;            // root only: SPrio
};

/// Receives increments/decrements of a participant's token-holding state
/// the moment it changes. This is the participant half of the incremental
/// token census (proto::CensusTracker): instead of snapshotting every
/// process per poll, the census integrates these deltas. Deltas are
/// exhaustive -- every mutation of RSet or Prio, including transient-fault
/// corruption, reports through here.
class ParticipantDeltaSink {
 public:
  virtual ~ParticipantDeltaSink() = default;

  /// |RSet| changed by `delta` (reserved resource tokens).
  virtual void on_reserved_delta(int delta) = 0;

  /// The process started (+1) or stopped (-1) holding the priority token.
  virtual void on_priority_delta(int delta) = 0;
};

/// Protocol-side surface every exclusion process implements.
class ExclusionParticipant {
 public:
  virtual ~ExclusionParticipant() = default;

  /// Application move Out→Req: request `need` units (0 <= need <= k).
  /// Precondition: app_state() == kOut (other transitions are forbidden by
  /// the paper's interface).
  virtual void request(int need) = 0;

  /// Application signals the end of its critical section; the protocol's
  /// ReleaseCS() predicate holds from this call until the protocol
  /// performs In→Out. Precondition: app_state() == kIn.
  virtual void release() = 0;

  virtual AppState app_state() const = 0;
  virtual int need() const = 0;

  virtual LocalSnapshot snapshot() const = 0;

  /// Transient fault: overwrite every protocol variable with a uniformly
  /// random in-domain value. (Channel corruption is done by the harness.)
  virtual void corrupt(support::Rng& rng) = 0;

  /// Epoch-cut drain hook (Features::epoch_cut): drop every token this
  /// process stores -- RSet entries and a held priority token -- exactly
  /// like a reset visitation would, reporting the deltas through the
  /// sink. Part of the harness's single batched O(n) drain pass; the
  /// channel half is Engine::clear_channels().
  virtual void epoch_drain() = 0;

  /// Epoch-cut restart hook, meaningful only at the root (node 0): reset
  /// the census/reset machinery, mint a fresh legitimate token population
  /// for the enabled rungs and restart the controller circulation.
  /// Returns false at non-root processes (the default).
  virtual bool epoch_restart() { return false; }

  /// Attaches the (single) delta sink. The sink must start from this
  /// participant's current snapshot() -- attaching at construction time
  /// (all counts zero) is the usual way to keep that trivial. Detach with
  /// nullptr. Unattached participants pay one predictable branch per
  /// state change and no indirect call.
  void attach_deltas(ParticipantDeltaSink* sink) { deltas_ = sink; }

 protected:
  void notify_reserved_delta(int delta) {
    if (deltas_ != nullptr && delta != 0) deltas_->on_reserved_delta(delta);
  }
  void notify_priority_delta(int delta) {
    if (deltas_ != nullptr && delta != 0) deltas_->on_priority_delta(delta);
  }

 private:
  ParticipantDeltaSink* deltas_ = nullptr;
};

/// Protocol lifecycle events, delivered synchronously at simulation time.
/// Implementations must not re-enter the engine (they may schedule()).
/// Calls arrive in each engine lane's own (at, seq) order; an engine
/// whose lanes are closed (a fleet's tenant blocks) runs them one after
/// another, so calls of different lanes are not interleaved by time.
class Listener {
 public:
  virtual ~Listener() = default;

  virtual void on_request(NodeId node, int need, sim::SimTime at) {
    (void)node; (void)need; (void)at;
  }
  /// The protocol granted the request: State switched Req→In (EnterCS()).
  virtual void on_enter_cs(NodeId node, int need, sim::SimTime at) {
    (void)node; (void)need; (void)at;
  }
  /// State switched In→Out; the reserved units re-entered circulation.
  virtual void on_exit_cs(NodeId node, sim::SimTime at) {
    (void)node; (void)at;
  }
  /// Root only: a controller circulation terminated with the given census.
  virtual void on_circulation_end(int resource, int pusher, int priority,
                                  bool reset_decided, sim::SimTime at) {
    (void)resource; (void)pusher; (void)priority; (void)reset_decided;
    (void)at;
  }
  /// Root minted `count` tokens of `type` at the end of a circulation.
  virtual void on_tokens_minted(std::int32_t token_type, int count,
                                sim::SimTime at) {
    (void)token_type; (void)count; (void)at;
  }
};

/// Fans a Listener event out to many listeners.
class ListenerSet : public Listener {
 public:
  void add(Listener* listener);

  void on_request(NodeId node, int need, sim::SimTime at) override;
  void on_enter_cs(NodeId node, int need, sim::SimTime at) override;
  void on_exit_cs(NodeId node, sim::SimTime at) override;
  void on_circulation_end(int resource, int pusher, int priority,
                          bool reset_decided, sim::SimTime at) override;
  void on_tokens_minted(std::int32_t token_type, int count,
                        sim::SimTime at) override;

 private:
  std::vector<Listener*> listeners_;
};

/// The protocol ladder of Section 3: the paper builds the algorithm
/// incrementally, and each rung is a meaningful (mis)behaving protocol:
///   naive          -- ℓ circulating resource tokens only (deadlocks, Fig 2)
///   pusher         -- + pusher token (no deadlock, but livelocks, Fig 3)
///   pusher+priority-- + priority token (correct, but not fault-tolerant)
///   full           -- + controller (self-stabilizing; Algorithms 1 & 2)
///
/// Orthogonal "+cut" rung: epoch-cut batched recovery. The pure protocol
/// lets a transient fault's garbage-token population circulate for Θ(n)
/// ticks (Θ(n²) deliveries) until the root's counter-flushed census
/// absorbs it. With epoch_cut the deployment's management plane may react
/// to a *detected* illegitimate population (the O(1) incremental census)
/// with SystemBase::epoch_cut_recover(): one batched O(n) drain pass --
/// wipe channels, drain every process's stored tokens, re-mint -- instead
/// of the Θ(n)-tick distributed reset. Opt-in: it trades the paper's
/// pure message-passing self-stabilization for engineered recovery speed,
/// and every committed baseline runs without it.
struct Features {
  bool pusher = true;
  bool priority = true;
  bool controller = true;
  bool epoch_cut = false;

  static Features naive() { return {false, false, false}; }
  static Features with_pusher() { return {true, false, false}; }
  static Features with_priority() { return {true, true, false}; }
  static Features full() { return {true, true, true}; }

  /// This rung plus the epoch-cut batched recovery drain.
  Features with_epoch_cut() const {
    Features f = *this;
    f.epoch_cut = true;
    return f;
  }

  const char* name() const;

  friend bool operator==(const Features&, const Features&) = default;
};

}  // namespace klex::proto
