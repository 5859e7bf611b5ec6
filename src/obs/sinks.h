// The observability sinks' one knob table.
//
// Six sinks observe a run: metrics file, trace file, log level, /statusz
// port, JSONL metrics stream and signal flush. Each is one row of
// sink_table() naming its env variable, config key and command-line flag;
// nothing else spells them, and docs/CONFIG.md's sink table is diffed
// against the rows in tier-1 (tests/test_config.cpp).
//
// read_sinks() is core::read_knobs over these rows: the environment, then a
// KeyValueConfig, then flags (flag > key > env) into a plain Sinks value,
// without side effects; the first bad value throws std::invalid_argument
// naming its spelling. An empty key or flag value switches a sink off, so
// a higher layer can undo a lower one. start() turns a Sinks value
// on; finish() writes the metrics and trace files and stops the stream and
// the server. finish() also runs at exit and is a no-op until the next
// start(). Sinks are timing-only: no result byte depends on them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "obs/log.h"

namespace cn::obs {

struct Sinks {
  std::string metrics;          // registry snapshot written here by finish()
  std::string trace;            // tracer on; trace JSON written by finish()
  std::optional<LogLevel> log;  // unset = leave the Logger level as it is
  int statusz_port = -1;        // exposition server; -1 = off, 0 = ephemeral
  std::string metrics_stream;   // 1 Hz interval-delta JSONL stream
  bool signal_flush = false;    // SIGINT/SIGTERM write every sink, re-raise
};

/// The sink rows are core::Knob rows (core/config.h) over Sinks.
using SinkRow = core::Knob<Sinks>;
using SinkFlags = core::Flags;

const core::Knobs<Sinks>& sink_table();
std::vector<std::string> sink_config_keys();
bool is_sink_flag(const std::string& arg);

Sinks read_sinks(const core::KeyValueConfig& cfg = {},
                 const SinkFlags& flags = {});

/// `ready` marks a started exposition server ready at once; pass false when
/// an InferenceServer flips it once its chips are programmed. Throws when
/// the port cannot be bound or the stream cannot be opened.
void start(const Sinks& s, bool ready = true);
void finish() noexcept;

}  // namespace cn::obs
