// Gate-level netlist.
//
// A Netlist is a set of gates (instances of library cells) connected by
// single-driver nets. Primary I/O is modelled with kInput/kOutput interface
// cells; per the paper (section III-B3) the I/O circuits sit on the shared
// pad ring ground, so they are excluded from the partitionable gate set and
// from the connection set E handed to the partitioner.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/cell_library.h"
#include "netlist/name_arena.h"
#include "netlist/name_index.h"

namespace sfqpart {

using GateId = std::int32_t;
using NetId = std::int32_t;
inline constexpr GateId kInvalidGate = -1;
inline constexpr NetId kInvalidNet = -1;

// One endpoint of a net: a pin on a gate. For drivers `pin` indexes the
// gate's output pins; for sinks it indexes the data-input pins, with the
// special value kClockPin for the clock input of clocked cells.
struct PinRef {
  GateId gate = kInvalidGate;
  int pin = 0;

  bool operator==(const PinRef&) const = default;
};

inline constexpr int kClockPin = -1;

// Names are arena-interned NameRefs (netlist/name_arena.h): 16 bytes, no
// per-name heap block, `.c_str()` / string conversions as before. The
// owning Netlist's arena outlives every Gate/Net it hands out.
struct Gate {
  NameRef name;
  int cell = -1;  // index into the netlist's CellLibrary
};

struct Net {
  NameRef name;
  PinRef driver;               // invalid gate id when undriven (parse error)
  std::vector<PinRef> sinks;
};

// A directed gate-to-gate connection (one per net sink).
struct Connection {
  GateId from = kInvalidGate;
  GateId to = kInvalidGate;

  bool operator==(const Connection&) const = default;
};

class Netlist {
 public:
  explicit Netlist(const CellLibrary* library = &default_sfq_library(),
                   std::string name = "top");

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const CellLibrary& library() const { return *library_; }

  // --- Construction -------------------------------------------------------

  // Adds a gate instance; names must be unique within the netlist.
  // Every mutator (add_gate, connect, connect_clock) drops the memoized
  // unique_edges().
  GateId add_gate(std::string_view name, int cell_index);

  // Convenience: instantiate the library's first cell of `kind`.
  GateId add_gate_of_kind(std::string_view name, CellKind kind);

  // Connects output pin `out_pin` of `from` to data-input pin `in_pin` of
  // `to`, creating the net on demand (one net per driver output pin).
  // Asserts if the input pin is already connected.
  NetId connect(GateId from, int out_pin, GateId to, int in_pin);

  // Connects `from`'s output pin to the clock pin of a clocked gate `to`.
  NetId connect_clock(GateId from, int out_pin, GateId to);

  // --- Gate access ---------------------------------------------------------

  int num_gates() const { return static_cast<int>(gates_.size()); }
  const Gate& gate(GateId id) const { return gates_.at(static_cast<std::size_t>(id)); }
  const Cell& cell_of(GateId id) const { return library_->cell(gate(id).cell); }
  GateId find_gate(std::string_view name) const;  // kInvalidGate if absent

  double bias_of(GateId id) const { return cell_of(id).bias_ma; }
  double area_of(GateId id) const { return cell_of(id).area_um2; }

  // I/O interface cells sit on the pad-ring ground plane and are not
  // partitioned (paper section III-B3). One byte per gate, set by
  // add_gate from the cell kind.
  bool is_io(GateId id) const {
    return io_gate_.at(static_cast<std::size_t>(id)) != 0;
  }
  bool is_partitionable(GateId id) const { return !is_io(id); }
  int num_partitionable_gates() const;

  // --- Net access ----------------------------------------------------------

  int num_nets() const { return static_cast<int>(nets_.size()); }
  const Net& net(NetId id) const { return nets_.at(static_cast<std::size_t>(id)); }

  // Net driven by the given output pin; kInvalidNet when unconnected.
  NetId output_net(GateId id, int out_pin) const;
  // Net feeding the given data-input pin; kInvalidNet when unconnected.
  NetId input_net(GateId id, int in_pin) const;
  // Net feeding the clock pin; kInvalidNet when unconnected.
  NetId clock_net(GateId id) const;

  // Number of sinks across all output pins of the gate (clock sinks count).
  int fanout(GateId id) const;

  // --- Partitioner / analysis views ---------------------------------------

  // All directed gate-to-gate connections (one per net sink), including
  // clock edges and I/O gates.
  std::vector<Connection> connections() const;

  // The connection set E of the paper: undirected, deduplicated pairs of
  // *partitionable* gates. Pairs are canonicalized with from < to and
  // sorted by (from, to).
  //
  // Memoized: built on the first call, then shared by every caller until
  // the next mutation. The reference stays valid until the next mutation
  // or the netlist's destruction; the memo holds 8 B per edge for as long
  // as the netlist lives. Concurrent const callers are safe and build it
  // once. A copy carries the source's edges when they are built; a move
  // takes them and leaves the source to rebuild on demand.
  const std::vector<Connection>& unique_edges() const;

  // Total bias current [mA] / area [um^2] over partitionable gates
  // (B_cir, A_cir of Table I).
  double total_bias_ma() const;
  double total_area_um2() const;

  // --- Whole-netlist helpers ----------------------------------------------

  // Gate ids in topological order (inputs first). Clock edges are ignored
  // for ordering; clocked gates act as pipeline stages but the SFQ data flow
  // itself is acyclic. Asserts on combinational cycles.
  std::vector<GateId> topological_order() const;

  // Bytes held by the interned name table: arena bytes plus the lookup
  // index's slot table (capacity bench reporting).
  std::size_t name_table_bytes() const {
    return arena_->bytes() + gate_name_index_.bytes();
  }
  // The lookup index's share alone (the open-addressing replacement of
  // the old unordered_map<string_view, GateId>; capacity bench reports
  // the before/after delta).
  std::size_t name_index_bytes() const { return gate_name_index_.bytes(); }

 private:
  // The memo behind unique_edges(). Const callers build and read it
  // under the mutex, so concurrent readers build it once and all get the
  // one vector. Mutators, which never run beside const callers, drop it.
  class EdgeMemo {
   public:
    EdgeMemo() = default;
    EdgeMemo(const EdgeMemo& other) : edges_(other.snapshot()) {}
    EdgeMemo(EdgeMemo&& other) noexcept
        : edges_(std::exchange(other.edges_, std::nullopt)) {}
    EdgeMemo& operator=(const EdgeMemo& other) {
      if (this != &other) edges_ = other.snapshot();
      return *this;
    }
    EdgeMemo& operator=(EdgeMemo&& other) noexcept {
      edges_ = std::exchange(other.edges_, std::nullopt);
      return *this;
    }

    template <typename Build>
    const std::vector<Connection>& get(Build&& build) const {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!edges_) edges_ = build();
      return *edges_;
    }
    void reset() { edges_.reset(); }

   private:
    std::optional<std::vector<Connection>> snapshot() const {
      const std::lock_guard<std::mutex> lock(mutex_);
      return edges_;
    }

    mutable std::mutex mutex_;
    mutable std::optional<std::vector<Connection>> edges_;  // under mutex_
  };

  NetId net_for_output(GateId from, int out_pin, std::string_view fallback_name);
  std::vector<Connection> build_unique_edges() const;

  std::string name_;
  const CellLibrary* library_;
  // Shared so copied netlists keep their NameRefs valid (the arena is
  // append-only and blocks never move).
  std::shared_ptr<NameArena> arena_;
  std::vector<Gate> gates_;
  std::vector<std::uint8_t> io_gate_;  // parallel to gates_: 1 = I/O cell
  std::vector<Net> nets_;
  // Open-addressing id table (netlist/name_index.h): stores no keys at
  // all — probes resolve ids back to their interned names via gates_, so
  // the index costs ~8 bytes per gate instead of an unordered_map node.
  NameIndex gate_name_index_;
  // Per-gate pin-to-net maps, parallel to gates_.
  std::vector<std::vector<NetId>> input_nets_;   // size = cell.num_inputs
  std::vector<std::vector<NetId>> output_nets_;  // size = cell.num_outputs
  std::vector<NetId> clock_nets_;                // kInvalidNet when none
  EdgeMemo edge_memo_;
};

}  // namespace sfqpart
