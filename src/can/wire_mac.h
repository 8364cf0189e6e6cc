// psme::can — wire-rate mandatory access control at controller ingress.
//
// The request-level MAC answers "may entry point E access asset A?"; the
// paper's promise is enforcement ON the traffic. WireMac closes the gap:
// it classifies every received CAN frame into the policy's SID space —
// 11-bit ids through a dense O(1) binding table, 29-bit J1939 ids by
// src/dest/PGN decomposition — and adjudicates whole bus batches through
// the sealed image's verdict-only batch call, so the hot path never
// materialises a Decision object or touches a string.
//
// Classification maps an identifier to (candidate subjects, object,
// access). Candidate subjects encode the binding layer's ∃-semantics
// directly on the wire: a command id is legitimate iff SOME entry point
// may write the asset, so the binding lists every plausible commander
// and the wire verdict is the OR of the per-candidate policy answers —
// all candidates ride the same batch, so the OR costs no extra image
// calls, only extra lanes.
//
// Multi-frame ISO-TP conversations are adjudicated ONCE per flow: the
// FirstFrame buys a verdict, ConsecutiveFrames inherit it (allowed flows
// pass, denied flows drop every subsequent frame), FlowControl pacing
// passes untouched, and malformed transport frames drop with their own
// reason. Denied means DROPPED at the controller before the application
// processor sees the frame, counted into ControllerStats::rx_wire_denied
// and reported per-frame to a WireDropSink (monitor::WireDropMonitor).
//
// A sealed core::CompiledPolicyImage answers the batches through
// evaluate_batch_allowed, with the table's mode SID stamped on every
// request. One WireMac is single-threaded (it owns reassembly and
// flow-verdict state); concurrency is per bus, one WireMac per bus, and
// any number of them may share one image, which is immutable.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "can/frame.h"
#include "can/isotp.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "mac/sid_table.h"
#include "sim/time.h"

namespace psme::can {

/// SAE J1939 29-bit identifier decomposition (priority / PGN / source,
/// PDU1 point-to-point vs PDU2 broadcast), mirroring the field layout
/// SavvyCAN's J1939ID viewer uses.
struct J1939Id {
  std::uint8_t priority = 0;  // bits 26..28
  std::uint8_t pf = 0;        // PDU format (bits 16..23)
  std::uint8_t ps = 0;        // PDU specific (bits 8..15)
  std::uint8_t src = 0;       // source address (bits 0..7)
  std::uint8_t dest = 0xFF;   // destination (PDU1 only; 0xFF = broadcast)
  std::uint32_t pgn = 0;      // parameter group number
  bool broadcast = false;     // PDU2 (pf >= 0xF0)

  [[nodiscard]] static constexpr J1939Id decompose(std::uint32_t raw29) noexcept {
    J1939Id id;
    id.priority = static_cast<std::uint8_t>((raw29 >> 26) & 0x7);
    id.pf = static_cast<std::uint8_t>((raw29 >> 16) & 0xFF);
    id.ps = static_cast<std::uint8_t>((raw29 >> 8) & 0xFF);
    id.src = static_cast<std::uint8_t>(raw29 & 0xFF);
    if (id.pf < 0xF0) {
      // PDU1: PS is a destination address, not part of the PGN.
      id.dest = id.ps;
      id.pgn = (raw29 >> 8) & 0x3FF00;
      id.broadcast = false;
    } else {
      id.dest = 0xFF;
      id.pgn = (raw29 >> 8) & 0x3FFFF;
      id.broadcast = true;
    }
    return id;
  }
};

/// Why the wire MAC dropped a frame.
enum class WireDropReason : std::uint8_t {
  kPolicyDenied = 0,  // classified, adjudicated, denied
  kUnbound,           // no binding for the id (deny-by-default)
  kFlowDenied,        // CF of an ISO-TP flow whose FF was denied
  kMalformedIsoTp,    // transport-layer garbage on an ISO-TP id
  kFlowTimeout,       // flow expired; stats-only (no frame to report)
  kCount,
};

[[nodiscard]] std::string_view to_string(WireDropReason reason) noexcept;

/// Receives one callback per frame the wire MAC drops. Implemented by
/// monitor::WireDropMonitor; lives in can:: so the monitor depends on
/// can and not vice versa.
class WireDropSink {
 public:
  virtual ~WireDropSink() = default;
  virtual void on_wire_drop(const Frame& frame, WireDropReason reason,
                            sim::SimTime at) = 0;
};

/// Compiled id→(subjects, object, access) map. Built once per (bus,
/// mode) by car::BindingCompiler::build_wire_table (or by hand in tests
/// and benches), then immutable — WireMac only reads it. Standard ids
/// resolve through a dense 2048-slot array (one load, no hashing);
/// extended ids decompose as J1939 and resolve by PGN, with the subject
/// optionally drawn from a per-source-address table.
class WireBindingTable {
 public:
  static constexpr std::int32_t kUnboundSlot = -1;
  static constexpr std::int32_t kPassSlot = -2;

  struct Binding {
    mac::Sid object = mac::kNullSid;
    core::AccessType access = core::AccessType::kRead;
    std::uint32_t subject_offset = 0;  // into subjects()
    std::uint16_t subject_count = 0;   // 0 => J1939 per-source subject
    bool isotp = false;                // id carries ISO-TP conversations
  };

  class Builder;

  WireBindingTable() { std_slots_.fill(kUnboundSlot); }

  /// Slot for a standard id: kPassSlot, kUnboundSlot, or binding index.
  [[nodiscard]] std::int32_t standard_slot(std::uint32_t id) const noexcept {
    return id < std_slots_.size() ? std_slots_[id] : kUnboundSlot;
  }
  /// Slot for a J1939 PGN.
  [[nodiscard]] std::int32_t pgn_slot(std::uint32_t pgn) const noexcept {
    const auto it = pgn_slots_.find(pgn);
    return it != pgn_slots_.end() ? it->second : kUnboundSlot;
  }
  [[nodiscard]] const Binding& binding(std::int32_t slot) const noexcept {
    return bindings_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] std::span<const mac::Sid> subjects_of(
      const Binding& b) const noexcept {
    return {subjects_.data() + b.subject_offset, b.subject_count};
  }
  [[nodiscard]] mac::Sid j1939_subject(std::uint8_t address) const noexcept {
    return j1939_sources_[address];
  }
  [[nodiscard]] mac::Sid mode_sid() const noexcept { return mode_sid_; }
  [[nodiscard]] bool unbound_allowed() const noexcept {
    return unbound_allowed_;
  }
  [[nodiscard]] std::size_t binding_count() const noexcept {
    return bindings_.size();
  }
  /// Widest candidate-subject list of any binding (batch sizing aid).
  [[nodiscard]] std::size_t max_subjects() const noexcept {
    return max_subjects_;
  }

 private:
  std::array<std::int32_t, 2048> std_slots_{};
  std::unordered_map<std::uint32_t, std::int32_t> pgn_slots_;
  std::vector<Binding> bindings_;
  std::vector<mac::Sid> subjects_;
  std::array<mac::Sid, 256> j1939_sources_{};  // kNullSid = unmapped
  mac::Sid mode_sid_ = mac::kNullSid;
  bool unbound_allowed_ = false;
  std::size_t max_subjects_ = 0;
};

class WireBindingTable::Builder {
 public:
  /// Frame passes without adjudication (structural ids: mode change,
  /// NM window, fail-safe trigger).
  Builder& pass_standard(std::uint32_t id);
  Builder& pass_standard_range(std::uint32_t first, std::uint32_t last);
  Builder& pass_pgn(std::uint32_t pgn);

  /// Binds a standard id: the frame is allowed iff ANY subject in
  /// `subjects` may `access` `object`. Throws std::invalid_argument
  /// for an empty subject list or an id above 0x7FF.
  Builder& bind_standard(std::uint32_t id, std::span<const mac::Sid> subjects,
                         mac::Sid object, core::AccessType access,
                         bool isotp = false);

  /// Binds a J1939 PGN. With `subjects` empty the subject comes from
  /// the source-address table (j1939_source); unmapped sources are
  /// unbound.
  Builder& bind_pgn(std::uint32_t pgn, std::span<const mac::Sid> subjects,
                    mac::Sid object, core::AccessType access,
                    bool isotp = false);

  /// Maps a J1939 source address to its subject SID.
  Builder& j1939_source(std::uint8_t address, mac::Sid subject);

  /// Mode SID stamped on every request. Default kNullSid =
  /// mode-independent.
  Builder& set_mode(mac::Sid mode_sid);

  /// When true, ids with no binding pass instead of dropping.
  /// Default false: deny-by-default, the paper's stance.
  Builder& set_unbound_allowed(bool allowed);

  [[nodiscard]] WireBindingTable build();

 private:
  WireBindingTable table_;
};

struct WireMacStats {
  std::uint64_t frames = 0;         // frames presented
  std::uint64_t passed = 0;         // structural pass-through
  std::uint64_t adjudicated = 0;    // frames that bought a policy verdict
  std::uint64_t sid_requests = 0;   // SID lanes sent to the image
  std::uint64_t allowed = 0;        // frames admitted (any path)
  std::uint64_t denied = 0;         // policy denials (kPolicyDenied)
  std::uint64_t unbound = 0;        // deny-by-default drops
  std::uint64_t flow_starts = 0;    // ISO-TP flows adjudicated at the FF
  std::uint64_t flow_frames = 0;    // CFs riding an allowed flow verdict
  std::uint64_t flow_denied_frames = 0;  // CFs dropped under a denied flow
  std::uint64_t isotp_errors = 0;   // transport-layer drops
  std::uint64_t flow_timeouts = 0;  // flows expired awaiting a CF
};

/// The wire-rate adjudicator for one bus. See file comment.
class WireMac {
 public:
  /// Adjudicates through the image's staged batch pipeline with the
  /// table's mode SID stamped on every request. The image must outlive
  /// the WireMac.
  WireMac(WireBindingTable table, const core::CompiledPolicyImage& image);

  WireMac(const WireMac&) = delete;
  WireMac& operator=(const WireMac&) = delete;

  /// Adjudicates one frame (the controller ingress hook). True = admit.
  [[nodiscard]] bool admit(const Frame& frame, sim::SimTime at);

  /// Adjudicates a bus-sized batch: `allowed_out[i]` is 1 iff
  /// `frames[i]` is admitted. ONE image batch call serves the whole
  /// span, so per-frame cost approaches the vectorised core's
  /// ns/decision. Byte-identical to per-frame admit() on the same
  /// stream (test-pinned). Throws std::invalid_argument when the spans
  /// differ in length.
  void adjudicate_batch(std::span<const Frame> frames, sim::SimTime at,
                        std::span<std::uint8_t> allowed_out);

  /// Expires ISO-TP flows idle past the reassembler's CF timeout and
  /// forgets their verdicts. admit()/adjudicate_batch() call this with
  /// their own timestamp, so explicit calls are only needed to force
  /// expiry while no traffic flows.
  void expire_flows(sim::SimTime now);

  void set_drop_sink(WireDropSink* sink) noexcept { drop_sink_ = sink; }

  [[nodiscard]] const WireMacStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IsoTpStats& isotp_stats() const noexcept {
    return reassembler_.stats();
  }
  [[nodiscard]] const WireBindingTable& table() const noexcept {
    return table_;
  }
  /// Per-reason drop counters (index by WireDropReason).
  [[nodiscard]] const std::array<std::uint64_t,
                                 static_cast<std::size_t>(
                                     WireDropReason::kCount)>&
  drops_by_reason() const noexcept {
    return drops_by_reason_;
  }

 private:
  /// Per-frame adjudication plan, built by the classify pass.
  struct Plan {
    enum class Kind : std::uint8_t {
      kPass,        // structural allow, no verdict
      kDrop,        // verdict known without the image (reason below)
      kAdjudicate,  // lanes [lane_offset, lane_offset+lane_count) decide
      kInheritFlow, // copy the verdict of frames[flow_leader] (same batch)
      kCachedFlow,  // verdict resolved from the cross-batch flow map
    };
    enum class FlowOp : std::uint8_t {
      kNone,      // no flow bookkeeping
      kRecord,    // store this frame's verdict under flow_key (FF)
      kComplete,  // forget flow_key's verdict after applying (final CF)
    };
    Kind kind = Kind::kPass;
    FlowOp flow_op = FlowOp::kNone;
    WireDropReason reason = WireDropReason::kPolicyDenied;
    std::uint32_t lane_offset = 0;
    std::uint16_t lane_count = 0;
    std::uint32_t flow_leader = 0;
    bool cached_allowed = false;
    std::uint64_t flow_key = 0;
  };

  /// Builds the plan and SID lanes for frames[i]; appends to lanes_.
  [[nodiscard]] Plan classify(const Frame& frame, sim::SimTime at);

  void count_drop(const Frame& frame, WireDropReason reason, sim::SimTime at);

  WireBindingTable table_;
  const core::CompiledPolicyImage& image_;

  IsoTpReassembler reassembler_;
  /// Verdict of the open ISO-TP flow on an id (key as in isotp.cpp).
  std::unordered_map<std::uint64_t, bool> flow_verdicts_;
  /// Flows whose FF sits in the CURRENT batch: flow key -> leader frame
  /// index, so same-batch CFs inherit a verdict not yet computed.
  std::unordered_map<std::uint64_t, std::uint32_t> batch_flow_leaders_;

  // Batch scratch, reused across calls.
  std::vector<Plan> plans_;
  std::vector<core::SidRequest> lanes_;
  std::vector<std::uint8_t> lane_verdicts_;

  WireDropSink* drop_sink_ = nullptr;
  WireMacStats stats_;
  std::array<std::uint64_t, static_cast<std::size_t>(WireDropReason::kCount)>
      drops_by_reason_{};
};

}  // namespace psme::can
