// Gate-level netlist.
//
// A Netlist is a set of gates (instances of library cells) connected by
// single-driver nets. Primary I/O is modelled with kInput/kOutput interface
// cells; per the paper (section III-B3) the I/O circuits sit on the shared
// pad ring ground, so they are excluded from the partitionable gate set and
// from the connection set E handed to the partitioner.
#pragma once

#include <algorithm>
#include <cstddef>
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

// The sinks of one net, in connection order. SFQ gates drive one sink
// each (splitters make every fanout a gate of its own), so one sink is
// held in place and only larger fanout spills to one heap array: a
// fanout-1 net owns no heap block. Contiguous, so range-for, `[]` and
// std::span<const PinRef> read it like the vector it replaces. Copies
// are deep.
class SinkList {
 public:
  SinkList() = default;
  SinkList(const SinkList& other) { copy_from(other); }
  SinkList(SinkList&& other) noexcept { take_from(other); }
  SinkList& operator=(const SinkList& other) {
    if (this != &other) {
      clear();
      copy_from(other);
    }
    return *this;
  }
  SinkList& operator=(SinkList&& other) noexcept {
    if (this != &other) {
      clear();
      take_from(other);
    }
    return *this;
  }
  ~SinkList() { clear(); }

  const PinRef* data() const { return spilled() ? heap_ : &one_; }
  const PinRef* begin() const { return data(); }
  const PinRef* end() const { return data() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PinRef& operator[](std::size_t i) const { return data()[i]; }
  const PinRef& front() const { return data()[0]; }

  void push_back(PinRef sink) {
    if (size_ == capacity_) {
      // In place (capacity 1), then 2, 4, 8, ... slots on the heap.
      const std::uint32_t grown_capacity = 2 * capacity_;
      auto* grown = new PinRef[grown_capacity];
      std::copy(begin(), end(), grown);
      if (spilled()) delete[] heap_;
      heap_ = grown;
      capacity_ = grown_capacity;
    }
    (spilled() ? heap_ : &one_)[size_++] = sink;
  }

  // Heap bytes of the spilled array; 0 while the sinks fit in place.
  std::size_t heap_bytes() const {
    return spilled() ? capacity_ * sizeof(PinRef) : 0;
  }

 private:
  bool spilled() const { return capacity_ > 1; }
  // Frees a spilled array and leaves the list empty and in place.
  void clear() {
    if (spilled()) delete[] heap_;
    size_ = 0;
    capacity_ = 1;
  }
  // Both expect *this empty and in place. A copy spills only when it
  // holds more than one sink, and then to exactly its size.
  void copy_from(const SinkList& other) {
    if (other.size_ > 1) {
      heap_ = new PinRef[other.size_];
      std::copy(other.begin(), other.end(), heap_);
      capacity_ = other.size_;
    } else if (other.size_ == 1) {
      one_ = other.front();
    }
    size_ = other.size_;
  }
  void take_from(SinkList& other) {
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      one_ = other.one_;
    }
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 1);
  }

  union {
    PinRef one_{};  // capacity_ == 1: the sink, held in place
    PinRef* heap_;  // capacity_ > 1: capacity_ slots on the heap
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 1;
};

struct Net {
  NameRef name;
  PinRef driver;               // invalid gate id when undriven (parse error)
  SinkList sinks;
};

// Heap bytes a Netlist holds, by part (capacity accounting: what its
// containers reserved, without the allocator's per-block overhead).
struct NetlistBytes {
  std::size_t gates = 0;     // gate records and the per-gate I/O bytes
  std::size_t nets = 0;      // net records, each with one sink in place
  std::size_t sinks = 0;     // spilled sink arrays of nets with fanout > 1
  std::size_t pin_maps = 0;  // flat pin-to-net maps and their offsets
  std::size_t names = 0;     // name_table_bytes()
  std::size_t edges = 0;     // the unique_edges() memo, once built

  std::size_t total() const {
    return gates + nets + sinks + pin_maps + names + edges;
  }
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
  // The whole netlist's heap bytes by part (capacity bench reporting).
  NetlistBytes storage_bytes() const;

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
    std::size_t bytes() const {
      const std::lock_guard<std::mutex> lock(mutex_);
      return edges_ ? edges_->capacity() * sizeof(Connection) : 0;
    }

   private:
    std::optional<std::vector<Connection>> snapshot() const {
      const std::lock_guard<std::mutex> lock(mutex_);
      return edges_;
    }

    mutable std::mutex mutex_;
    mutable std::optional<std::vector<Connection>> edges_;  // under mutex_
  };

  NetId net_for_output(GateId from, int out_pin);
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
  // Flat pin-to-net maps, kInvalidNet where unconnected: gate g's
  // data-input pins are input_nets_[input_first_[g] + pin], cell.num_inputs
  // slots that add_gate appends, and its output pins likewise. No gate
  // owns a heap block of its own.
  std::vector<NetId> input_nets_;
  std::vector<std::uint32_t> input_first_;  // parallel to gates_
  std::vector<NetId> output_nets_;
  std::vector<std::uint32_t> output_first_;  // parallel to gates_
  std::vector<NetId> clock_nets_;            // parallel to gates_
  EdgeMemo edge_memo_;
};

}  // namespace sfqpart
