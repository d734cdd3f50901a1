#include "switchsim/packet.h"

#include <cstring>
#include <string>

namespace p4db::sw {

namespace {

template <typename T>
void Put(std::vector<uint8_t>& out, T value) {
  const size_t pos = out.size();
  out.resize(pos + sizeof(T));
  std::memcpy(out.data() + pos, &value, sizeof(T));
}

template <typename T>
bool Get(std::span<const uint8_t> in, size_t* pos, T* value) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kRead:
      return "READ";
    case OpCode::kWrite:
      return "WRITE";
    case OpCode::kAdd:
      return "ADD";
    case OpCode::kCondAddGeZero:
      return "COND_ADD_GE_ZERO";
    case OpCode::kMax:
      return "MAX";
    case OpCode::kSwap:
      return "SWAP";
  }
  return "INVALID";
}

std::string ToString(const Instruction& instr) {
  return std::string(OpCodeName(instr.op)) + " s" +
         std::to_string(instr.addr.stage) + "r" +
         std::to_string(instr.addr.reg) + "[" +
         std::to_string(instr.addr.index) + "], " +
         std::to_string(instr.operand);
}

void PacketCodec::Encode(const SwitchTxn& txn, std::vector<uint8_t>* buf) {
  std::vector<uint8_t>& out = *buf;
  out.clear();
  out.reserve(EncodedSize(txn));
  Put<uint8_t>(out, static_cast<uint8_t>((txn.is_multipass ? 1 : 0) |
                                         ((txn.int_flags & 0x3) << 1)));
  Put<uint8_t>(out, txn.lock_mask);
  Put<uint8_t>(out, txn.touch_mask);
  Put<uint8_t>(out, txn.nb_recircs);
  Put<uint8_t>(out, static_cast<uint8_t>(txn.instrs.size()));
  Put<uint16_t>(out, txn.origin_node);
  Put<uint32_t>(out, txn.client_seq);
  Put<uint8_t>(out, txn.epoch);
  for (const Instruction& instr : txn.instrs) {
    Put<uint8_t>(out, static_cast<uint8_t>(instr.op));
    Put<uint8_t>(out, instr.addr.stage);
    Put<uint8_t>(out, instr.addr.reg);
    // operand_src in low 7 bits, negate flag in the top bit.
    Put<uint8_t>(out, static_cast<uint8_t>((instr.operand_src & 0x7F) |
                                           (instr.negate_src ? 0x80 : 0)));
    Put<uint32_t>(out, instr.addr.index);
    Put<int64_t>(out, instr.operand);
    Put<uint8_t>(out, static_cast<uint8_t>((instr.operand_src2 & 0x7F) |
                                           (instr.negate_src2 ? 0x80 : 0)));
    Put<uint8_t>(out, 0);
    Put<uint8_t>(out, 0);
    Put<uint8_t>(out, 0);
  }
}

StatusOr<SwitchTxn> PacketCodec::Decode(std::span<const uint8_t> bytes) {
  SwitchTxn txn;
  size_t pos = 0;
  uint8_t flags = 0, count = 0, pad = 0, op = 0;
  if (!Get(bytes, &pos, &flags) || !Get(bytes, &pos, &txn.lock_mask) ||
      !Get(bytes, &pos, &txn.touch_mask) ||
      !Get(bytes, &pos, &txn.nb_recircs) || !Get(bytes, &pos, &count) ||
      !Get(bytes, &pos, &txn.origin_node) ||
      !Get(bytes, &pos, &txn.client_seq) || !Get(bytes, &pos, &txn.epoch)) {
    return Status::InvalidArgument("truncated switch-txn header");
  }
  if (count > kMaxInstructions) {
    return Status::InvalidArgument("instruction count exceeds the packet "
                                   "limit");
  }
  txn.is_multipass = (flags & 1) != 0;
  txn.int_flags = static_cast<uint8_t>((flags >> 1) & 0x3);
  txn.instrs.reserve(count);
  for (uint8_t i = 0; i < count; ++i) {
    Instruction instr;
    uint8_t src2 = 0, pad1 = 0, pad2 = 0, pad3 = 0;
    if (!Get(bytes, &pos, &op) || !Get(bytes, &pos, &instr.addr.stage) ||
        !Get(bytes, &pos, &instr.addr.reg) || !Get(bytes, &pos, &pad) ||
        !Get(bytes, &pos, &instr.addr.index) ||
        !Get(bytes, &pos, &instr.operand) || !Get(bytes, &pos, &src2) ||
        !Get(bytes, &pos, &pad1) || !Get(bytes, &pos, &pad2) ||
        !Get(bytes, &pos, &pad3)) {
      return Status::InvalidArgument("truncated instruction");
    }
    if (op > static_cast<uint8_t>(OpCode::kSwap)) {
      return Status::InvalidArgument("unknown opcode");
    }
    instr.op = static_cast<OpCode>(op);
    instr.operand_src = pad & 0x7F;
    instr.negate_src = (pad & 0x80) != 0;
    instr.operand_src2 = src2 & 0x7F;
    instr.negate_src2 = (src2 & 0x80) != 0;
    if ((instr.has_src() && instr.operand_src >= i) ||
        (instr.has_src2() && instr.operand_src2 >= i)) {
      return Status::InvalidArgument("operand_src must reference an earlier "
                                     "instruction");
    }
    txn.instrs.push_back(instr);
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after instructions");
  }
  return txn;
}

void BatchCodec::Encode(const SwitchBatch& batch, std::vector<uint8_t>* buf) {
  std::vector<uint8_t>& out = *buf;
  out.clear();
  out.reserve(EncodedSize(batch));
  Put<uint8_t>(out, kMagic);
  Put<uint8_t>(out, static_cast<uint8_t>(batch.txns.size()));
  Put<uint16_t>(out, batch.origin_node);
  Put<uint32_t>(out, batch.batch_seq);
  std::vector<uint8_t> member;
  for (const SwitchTxn& txn : batch.txns) {
    PacketCodec::Encode(txn, &member);
    out.insert(out.end(), member.begin(), member.end());
  }
}

StatusOr<SwitchBatch> BatchCodec::Decode(std::span<const uint8_t> bytes) {
  SwitchBatch batch;
  size_t pos = 0;
  uint8_t magic = 0, count = 0;
  if (!Get(bytes, &pos, &magic) || !Get(bytes, &pos, &count) ||
      !Get(bytes, &pos, &batch.origin_node) ||
      !Get(bytes, &pos, &batch.batch_seq)) {
    return Status::InvalidArgument("truncated batch header");
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("bad batch magic");
  }
  if (count == 0) {
    return Status::InvalidArgument("empty batch (the batcher never "
                                   "flushes zero members)");
  }
  batch.txns.reserve(count);
  for (uint8_t i = 0; i < count; ++i) {
    // Each member is self-delimiting: its instruction count lives at byte 4
    // of its own header, fixing the member length without a prefix.
    if (pos + PacketCodec::kHeaderBytes > bytes.size()) {
      return Status::InvalidArgument("truncated batch member header");
    }
    const size_t member_size =
        PacketCodec::kHeaderBytes +
        static_cast<size_t>(bytes[pos + 4]) * PacketCodec::kInstrBytes;
    if (pos + member_size > bytes.size()) {
      return Status::InvalidArgument("truncated batch member body");
    }
    auto txn = PacketCodec::Decode(bytes.subspan(pos, member_size));
    if (!txn.ok()) return txn.status();
    if (txn->origin_node != batch.origin_node) {
      return Status::InvalidArgument(
          "batch member origin_node disagrees with the batch header (an "
          "egress batch coalesces one node's uplink only)");
    }
    batch.txns.push_back(*std::move(txn));
    pos += member_size;
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after batch members");
  }
  return batch;
}

}  // namespace p4db::sw
