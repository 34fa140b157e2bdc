// Host-speed reference: a fixed piece of work, timed next to every
// measured interval, that events_per_s is normalized by.
//
// The benchmark's host is a few vCPUs of a shared machine. Its speed
// for event-simulation code wanders by up to 1.7x in phases of seconds
// to minutes (other tenants on the same physical cores and caches), so
// raw engine events per host second measure the neighbours as much as
// the program. The reference is a small discrete-event simulation of
// its own -- a binary heap of (time, node) events over 8 MiB of node
// state, each event reading a random peer and scheduling its successor
// -- so it slows down with the host in the same phases as the engine.
// It uses nothing from the library: a change to src/ never moves it.
//
// Every call does exactly the same work (fixed node count, event count
// and rng seed) on buffers allocated once, at the first call, so its
// rate depends on the host alone and it never interleaves allocations
// with the library's heap.
#pragma once

namespace perfbench {

/// The reference's events per host second on an unloaded core of the
/// development host (NOTES.md). Normalized rates are expressed against
/// it: a run on a host as fast as that reads the same as its raw rate.
inline constexpr double kReferenceRate = 5.0e6;

/// Runs the reference work once and returns its events per host second.
double reference_rate();

}  // namespace perfbench
