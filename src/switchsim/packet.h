#ifndef P4DB_SWITCHSIM_PACKET_H_
#define P4DB_SWITCHSIM_PACKET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/small_vector.h"
#include "common/status.h"
#include "common/types.h"
#include "switchsim/instruction.h"

namespace p4db::sw {

/// In-band telemetry block ("postcard" model). When a switch transaction is
/// armed for INT, the pipeline stamps this block in place as the packet
/// moves — nothing is sampled after the fact — and the reply carries it
/// back to the origin node for the IntCollector to fold. All times are
/// simulated nanoseconds on the switch's clock; durations are 32-bit
/// because no packet lives anywhere near 4 s inside the rack.
struct IntMeta {
  /// The block was fully stamped (completion reached) and may be folded.
  static constexpr uint8_t kValid = 1;
  /// Stamped at first ingress contact (before the admission gap).
  static constexpr uint8_t kArrived = 2;
  /// Stamped when the packet first clears admission (gap + pipeline locks).
  static constexpr uint8_t kAdmitted = 4;

  /// First contact with the ingress (arrival at the switch).
  SimTime arrival_ns = 0;
  /// First admission into the pipeline (post gap, post lock check).
  SimTime admit_ns = 0;
  /// Reply leaves the pipeline (arrival + residency = depart).
  SimTime depart_ns = 0;
  /// Total time parked on waiting ports because another holder's pipeline
  /// lock blocked admission (lock-blocked recirculations).
  uint32_t lock_wait_ns = 0;
  /// Total time on the fast recirculation port between a multi-pass
  /// holder's own passes (holder-cycling recirculations).
  uint32_t recirc_ns = 0;
  /// Replication view under which the primary stamped the block.
  uint32_t view = 0;
  /// Bit i set = some pass executed an instruction in stage min(i, 31).
  uint32_t stage_mask = 0;
  /// Packets logically queued ahead at ingress (admission-gap backlog,
  /// in units of the admission gap) when this one arrived.
  uint16_t queue_depth = 0;
  /// Register (stateful ALU) accesses executed across all passes.
  uint16_t reg_accesses = 0;
  uint8_t passes = 0;
  uint8_t recircs_blocked = 0;
  uint8_t recircs_holder = 0;
  /// Max executable instructions any single pass carried through a stage
  /// sweep (pass occupancy, an SRAM-port pressure proxy).
  uint8_t max_stage_occupancy = 0;
  /// Which physical switch stamped the block (primary under replication).
  uint8_t switch_id = 0;
  uint8_t flags = 0;
  /// Flat register-file indices of the first <= 8 executed instructions:
  /// (stage * regs_per_stage + reg) * slots_per_register + index. The raw
  /// per-tuple access stream hot-set re-layout feeds on.
  SmallVector<uint32_t, 8> slots;

  bool valid() const { return (flags & kValid) != 0; }
};

/// In-memory form of one switch transaction == one network packet
/// (Section 4.1: "each network packet in a switch pipeline represents a
/// separate transaction"). Field layout follows Figure 6.
struct SwitchTxn {
  /// Header (grey fields in Figure 6).
  bool is_multipass = false;
  /// For multi-pass transactions: the pipeline-locks to acquire on the
  /// first pass and free on the last — the regions holding registers that
  /// remain PENDING after the first pass (their cross-pass time gap is what
  /// needs protecting). Zero for single-pass transactions (Section 5.4).
  uint8_t lock_mask = 0;
  /// Regions touched by ANY instruction: admission requires these to be
  /// free of other transactions' locks (a holder may have intermediate
  /// state there).
  uint8_t touch_mask = 0;
  /// Recirculation counter, incremented on every recirculation; used by the
  /// switch flow control to prioritize long-waiting transactions.
  uint8_t nb_recircs = 0;
  /// Issuing database node (for the response route).
  uint16_t origin_node = 0;
  /// Issuer-local sequence number (echoed back; lets the node match
  /// responses and its WAL entries).
  uint32_t client_seq = 0;
  /// Control-plane epoch the issuer believes is current, stamped into the
  /// former header pad byte. The pipeline drops packets whose epoch doesn't
  /// match its own — after a switch reboot, pre-crash packets still in
  /// flight are fenced instead of executing against re-provisioned
  /// registers (the in-band cousin of the paper's GID-counter-restart
  /// trick, Section 6.1). Wraps at 256; a stale packet would need to
  /// survive 256 reboots in flight to alias, far beyond any in-flight
  /// lifetime the rack network allows.
  uint8_t epoch = 0;

  /// In-band telemetry arming (header flags byte, bits 1-2). kIntEnabled
  /// asks the pipeline to stamp an IntMeta postcard into the result;
  /// kIntWireCost additionally charges the INT bytes to wire serialization
  /// (request, recirculation, and reply legs).
  static constexpr uint8_t kIntEnabled = 1;
  static constexpr uint8_t kIntWireCost = 2;
  uint8_t int_flags = 0;

  bool int_enabled() const { return (int_flags & kIntEnabled) != 0; }
  bool int_wire_cost() const { return (int_flags & kIntWireCost) != 0; }

  /// Inline storage matches the workloads' common case (YCSB groups of 8,
  /// SmallBank <= 6 instructions); larger switch transactions spill.
  SmallVector<Instruction, 8> instrs;
};

/// Result of an executed switch transaction. Switch transactions never
/// abort (Section 5.1); constrained writes report per-instruction flags.
struct SwitchResult {
  Gid gid = kInvalidGid;
  uint16_t origin_node = 0;
  uint32_t client_seq = 0;
  uint32_t passes = 0;
  uint32_t recirculations = 0;
  /// Per-instruction result value (read value / post-write value).
  SmallVector<Value64, 8> values;
  /// Per-instruction constraint flag (0/1); 0 iff a constrained write's
  /// predicate failed (the write was skipped). Byte-sized instead of
  /// vector<bool> so results stay inline and memcpy-relocatable.
  SmallVector<uint8_t, 8> constraint_ok;
  /// Postcard telemetry block; telemetry.valid() only when the request was
  /// INT-armed and a serving primary stamped it to completion.
  IntMeta telemetry;
};

/// Wire codec for switch transactions, used for packet-size accounting on
/// the simulated network and round-trip tested as the parser/deparser would
/// be. Layout (little-endian):
///   [0]     flags        (bit0 = is_multipass, bit1 = INT armed,
///                         bit2 = INT wire-cost)
///   [1]     lock_mask
///   [2]     touch_mask
///   [3]     nb_recircs
///   [4]     instr_count
///   [5:7]   origin_node
///   [7:11]  client_seq
///   [11]    epoch
///   then per instruction 20 bytes:
///   [0] opcode  [1] stage  [2] reg  [3] src1  [4:8] index
///   [8:16] operand  [16] src2  [17:20] pad
///   (srcN bytes: low 7 bits = source instruction index, 0x7F = immediate;
///   top bit = negate the carried value)
class PacketCodec {
 public:
  static constexpr size_t kHeaderBytes = 12;
  static constexpr size_t kInstrBytes = 20;
  /// Ethernet + IP + UDP framing the real system pays per packet.
  static constexpr size_t kFrameOverheadBytes = 42;
  /// Source indices are 7-bit fields with 0x7F meaning "immediate", so a
  /// packet holds instructions 0..126 only.
  static constexpr size_t kMaxInstructions = kNoOperandSrc;
  /// INT wire-cost mode: the request (and every recirculation) carries an
  /// INT instruction header, the reply the stamped postcard block. Zero in
  /// postcard mode — the block rides for free.
  static constexpr size_t kIntRequestBytes = 4;
  static constexpr size_t kIntPostcardBytes = 32;

  static size_t EncodedSize(const SwitchTxn& txn) {
    return kHeaderBytes + txn.instrs.size() * kInstrBytes;
  }
  /// Total on-wire bytes including L2-L4 framing (for network timing).
  /// Wire-cost INT adds its instruction header here, which automatically
  /// prices every recirculation too (the pipeline recirculates WireSize).
  static size_t WireSize(const SwitchTxn& txn) {
    return EncodedSize(txn) + kFrameOverheadBytes +
           (txn.int_wire_cost() ? kIntRequestBytes : 0);
  }
  /// Response wire size: gid + counters + 8B per instruction result, plus
  /// the postcard block when INT wire-cost mode charges it.
  static size_t ResponseWireSize(size_t num_instrs,
                                 bool int_wire_cost = false) {
    return 24 + num_instrs * 9 + kFrameOverheadBytes +
           (int_wire_cost ? kIntPostcardBytes : 0);
  }

  /// Serializes into `out`, reusing its capacity (cleared first). The hot
  /// path keeps one buffer per in-flight slot, so steady-state encodes
  /// never allocate.
  static void Encode(const SwitchTxn& txn, std::vector<uint8_t>* out);
  /// Convenience form for tests/tools; allocates a fresh buffer.
  static std::vector<uint8_t> Encode(const SwitchTxn& txn) {
    std::vector<uint8_t> out;
    Encode(txn, &out);
    return out;
  }
  static StatusOr<SwitchTxn> Decode(std::span<const uint8_t> bytes);
};

/// A node→switch egress batch: several switch transactions from one origin
/// node riding in a single wire frame (DPDK doorbell coalescing). The
/// simulator hot path never round-trips real batches through bytes (same
/// shared-memory shortcut as single packets); this codec exists for wire
/// size accounting and is round-trip tested as the batching NIC driver's
/// pack/unpack would be.
struct SwitchBatch {
  uint16_t origin_node = 0;
  /// Per-origin monotonic batch number (lets the receiver detect a lost
  /// frame dropping a whole batch, the batched analog of client_seq).
  uint32_t batch_seq = 0;
  std::vector<SwitchTxn> txns;
};

/// Wire codec for egress batches. Layout (little-endian):
///   [0]    magic (0xB4 — distinguishes a batch from a bare txn,
///          whose first byte is a 0/1 flags field)
///   [1]    txn_count (1..kMaxTxns)
///   [2:4]  origin_node
///   [4:8]  batch_seq
///   then txn_count back-to-back PacketCodec encodings. Each is
///   self-delimiting — its instruction count sits at byte 4 of its own
///   header — so members need no per-member length prefix.
class BatchCodec {
 public:
  static constexpr uint8_t kMagic = 0xB4;
  static constexpr size_t kHeaderBytes = 8;
  static constexpr size_t kMaxTxns = 255;

  static size_t EncodedSize(const SwitchBatch& batch) {
    size_t size = kHeaderBytes;
    for (const SwitchTxn& txn : batch.txns) {
      size += PacketCodec::EncodedSize(txn);
    }
    return size;
  }
  /// Total on-wire bytes: ONE L2-L4 frame for the whole batch — the
  /// amortization the egress batcher exists to buy.
  static size_t WireSize(const SwitchBatch& batch) {
    return EncodedSize(batch) + PacketCodec::kFrameOverheadBytes;
  }
  /// Wire bytes of a batch whose members total `payload_sum` encoded bytes
  /// (frameless). The engine's batcher tracks member payloads incrementally
  /// and never materializes a SwitchBatch; requests use
  /// PacketCodec::EncodedSize per member, responses ResponsePayloadSize.
  static size_t WireSizeFor(size_t payload_sum) {
    return kHeaderBytes + payload_sum + PacketCodec::kFrameOverheadBytes;
  }
  /// Frameless response payload of one member on the batched return leg
  /// (ResponseWireSize minus the per-packet frame the batch amortizes).
  static size_t ResponsePayloadSize(size_t num_instrs,
                                    bool int_wire_cost = false) {
    return PacketCodec::ResponseWireSize(num_instrs, int_wire_cost) -
           PacketCodec::kFrameOverheadBytes;
  }

  static void Encode(const SwitchBatch& batch, std::vector<uint8_t>* out);
  static std::vector<uint8_t> Encode(const SwitchBatch& batch) {
    std::vector<uint8_t> out;
    Encode(batch, &out);
    return out;
  }
  static StatusOr<SwitchBatch> Decode(std::span<const uint8_t> bytes);
};

}  // namespace p4db::sw

#endif  // P4DB_SWITCHSIM_PACKET_H_
