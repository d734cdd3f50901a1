#include "core/config.h"

#include <string>

namespace p4db::core {

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kP4db:
      return "P4DB";
    case EngineMode::kNoSwitch:
      return "No-Switch";
    case EngineMode::kLmSwitch:
      return "LM-Switch";
    case EngineMode::kChiller:
      return "Chiller";
  }
  return "?";
}

const char* CcProtocolName(CcProtocol protocol) {
  switch (protocol) {
    case CcProtocol::k2pl:
      return "2PL";
    case CcProtocol::kOcc:
      return "OCC";
  }
  return "?";
}

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
  }
  return "?";
}

Status ValidateConfig(const SystemConfig& config) {
  if (config.num_switches == 0) {
    return Status::InvalidArgument(
        "num_switches must be >= 1: the cluster needs a ToR switch even "
        "when the pipeline is unused");
  }
  if (config.num_switches > 8) {
    return Status::InvalidArgument(
        "num_switches > 8 exceeds the modeled rack (one replication chain "
        "of at most 8 programmable switches)");
  }
  if (config.num_nodes == 0) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (config.num_switches > 1) {
    if (config.mode != EngineMode::kP4db) {
      return Status::Unsupported(
          std::string("replication (num_switches >= 2) requires the P4DB "
                      "mode; ") +
          EngineModeName(config.mode) +
          " has no in-switch hot-tuple state to replicate");
    }
    if (config.cc_protocol != CcProtocol::k2pl) {
      return Status::Unsupported(
          "replication (num_switches >= 2) supports the 2PL protocol only; "
          "OCC's validation-phase switch access is not replication-aware");
    }
    if (config.timing.view_change_delay <= 0) {
      return Status::InvalidArgument(
          "view_change_delay must be positive when replication is enabled");
    }
  }
  if (config.batch.size == 0) {
    return Status::InvalidArgument(
        "batch.size must be >= 1 (1 disables batching; 0 would mean a "
        "batch that can never flush)");
  }
  if (config.batch.size > BatchConfig::kMaxBatchSize) {
    return Status::InvalidArgument(
        "batch.size exceeds kMaxBatchSize (the egress batcher's inline "
        "member storage)");
  }
  if (config.batch.size > 1) {
    if (config.batch.flush_timeout <= 0) {
      return Status::InvalidArgument(
          "batch.flush_timeout must be positive when batching is enabled: "
          "a partial batch with no doorbell timer would stall forever");
    }
    if (config.mode != EngineMode::kP4db) {
      return Status::Unsupported(
          std::string("egress batching (batch.size >= 2) coalesces "
                      "switch-bound transactions and requires the P4DB "
                      "mode; ") +
          EngineModeName(config.mode) + " sends none");
    }
    if (config.cc_protocol != CcProtocol::k2pl) {
      return Status::Unsupported(
          "egress batching (batch.size >= 2) supports the 2PL protocol "
          "only; OCC's validation-phase switch access is not batcher-aware");
    }
    if (config.num_switches > 1) {
      return Status::Unsupported(
          "egress batching (batch.size >= 2) is single-switch only; the "
          "batcher is not replication/view-change aware yet");
    }
  }
  if (config.open_loop.enabled) {
    if (config.open_loop.offered_load <= 0.0) {
      return Status::InvalidArgument(
          "open_loop.offered_load must be positive (transactions per "
          "second across the cluster) when open-loop load is enabled");
    }
    if (config.open_loop.admission_queue_bound == 0) {
      return Status::InvalidArgument(
          "open_loop.admission_queue_bound must be >= 1: a zero-capacity "
          "admission queue would shed or stall every arrival");
    }
    if (config.open_loop.process == ArrivalProcess::kMmpp) {
      if (config.open_loop.burst_factor < 1.0) {
        return Status::InvalidArgument(
            "open_loop.burst_factor must be >= 1 (the burst state runs at "
            "least as hot as the calm state)");
      }
      if (config.open_loop.burst_dwell <= 0) {
        return Status::InvalidArgument(
            "open_loop.burst_dwell must be positive for MMPP arrivals");
      }
    }
  }
  if (config.int_telemetry.wire_cost && !config.int_telemetry.enabled) {
    return Status::InvalidArgument(
        "int_telemetry.wire_cost requires int_telemetry.enabled: there is "
        "no telemetry block to charge to the wire");
  }
  if (config.int_telemetry.enabled) {
    if (config.mode != EngineMode::kP4db) {
      return Status::Unsupported(
          std::string("in-band telemetry stamps switch-bound transactions "
                      "and requires the P4DB mode; ") +
          EngineModeName(config.mode) + " sends none through the pipeline");
    }
    if (config.cc_protocol != CcProtocol::k2pl) {
      return Status::Unsupported(
          "in-band telemetry supports the 2PL protocol only; OCC's "
          "validation-phase switch access is not postcard-aware");
    }
  }
  if (config.network.num_switches != 1 &&
      config.network.num_switches != config.num_switches) {
    return Status::InvalidArgument(
        "network.num_switches disagrees with num_switches; leave the "
        "network field at 1 and let the Engine mirror the top-level knob");
  }
  if (config.network.node_to_switch_one_way <= 0) {
    return Status::InvalidArgument(
        "network.node_to_switch_one_way must be positive: every message "
        "crosses at least one node-to-switch link");
  }
  if (config.num_switches > 1 && config.network.switch_to_switch_one_way <= 0) {
    return Status::InvalidArgument(
        "network.switch_to_switch_one_way must be positive when replication "
        "is enabled");
  }
  if (config.threads > 0) {
    // The sharded runtime covers the configurations every figure benchmark
    // scales; the remaining ones stay on the legacy runtime (threads = 0).
    if (config.cc_protocol != CcProtocol::k2pl) {
      return Status::Unsupported(
          "the sharded runtime (threads >= 1) supports the 2PL protocol "
          "only; run OCC with threads = 0");
    }
    if (config.mode != EngineMode::kP4db &&
        config.mode != EngineMode::kNoSwitch) {
      return Status::Unsupported(
          std::string("the sharded runtime (threads >= 1) supports the P4DB "
                      "and No-Switch modes only; run ") +
          EngineModeName(config.mode) + " with threads = 0");
    }
  }
  return Status::Ok();
}

}  // namespace p4db::core
