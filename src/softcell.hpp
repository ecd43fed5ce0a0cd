// Umbrella header: the full public API of the SoftCell library.
//
// SoftCell (Jin, Li, Vanbever, Rexford -- CoNEXT 2013) is a scalable,
// flexible cellular core network architecture built from commodity switches
// and a logically centralized controller.  See README.md for a tour and
// DESIGN.md for the mapping from paper sections to modules.
#pragma once

#include "agent/access_switch.hpp"    // access-edge data plane
#include "agent/local_agent.hpp"      // per-base-station control agent
#include "core/baselines.hpp"         // comparison routing schemes
#include "core/engine.hpp"            // Algorithm 1: multi-dimensional aggregation
#include "core/path.hpp"              // policy-path expansion
#include "ctrl/controller.hpp"        // central controller
#include "ctrl/store.hpp"             // replicated control-plane state
#include "dataplane/microflow.hpp"    // access-switch microflow tables
#include "dataplane/rule.hpp"         // rule model
#include "dataplane/switch_table.hpp" // per-switch TCAM/exact/LPM tables
#include "legacy/epc.hpp"             // legacy GTP/P-GW baseline
#include "mbox/middlebox.hpp"         // behavioural middlebox models
#include "mobility/handoff.hpp"       // policy-consistent mobility
#include "ofp/flowmod.hpp"            // southbound flow-mod wire protocol
#include "ofp/mirror.hpp"             // controller->switch deployment mirror
#include "ofp/switch_agent.hpp"       // switch-side protocol endpoint
#include "packet/locip.hpp"           // LocIP addressing + port tag codec
#include "packet/nat.hpp"             // per-flow gateway NAT
#include "packet/packet.hpp"          // packet/flow model
#include "packet/prefix.hpp"          // IPv4 prefixes
#include "policy/policy.hpp"          // service policies
#include "runtime/metrics.hpp"        // per-shard lock-free counters
#include "runtime/queue.hpp"          // bounded per-worker request queue
#include "runtime/runtime.hpp"        // concurrent request pipeline
#include "runtime/snapshot.hpp"       // RCU-style versioned snapshots
#include "runtime/thread_pool.hpp"    // worker pool with per-worker rings
#include "sim/event_queue.hpp"        // discrete-event scheduler
#include "sim/network.hpp"            // whole-system simulation harness
#include "topo/cellular.hpp"          // section 6.3 topology generator
#include "topo/graph.hpp"             // topology graph
#include "topo/routing.hpp"           // shortest-path oracle
#include "util/ids.hpp"               // typed identifiers
#include "util/rng.hpp"               // deterministic randomness
#include "util/stats.hpp"             // percentiles/CDFs
#include "workload/cbench.hpp"        // control-plane load generators
#include "workload/lte_trace.hpp"     // synthetic LTE workload (Fig. 6)
