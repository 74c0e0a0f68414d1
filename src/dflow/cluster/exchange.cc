#include "dflow/cluster/exchange.h"

#include <algorithm>
#include <utility>

#include "dflow/vector/kernels.h"

namespace dflow::cluster {

std::string_view ExchangeOutcomeToString(ExchangeOutcome outcome) {
  switch (outcome) {
    case ExchangeOutcome::kDone:
      return "DONE";
    case ExchangeOutcome::kCancelled:
      return "CANCELLED";
    case ExchangeOutcome::kNodeLost:
      return "NODE_LOST";
    case ExchangeOutcome::kRetryExhausted:
      return "RETRY_EXHAUSTED";
  }
  return "?";
}

namespace {

/// One routed piece of a source's chunks, in send order: a local delivery
/// (dst is the source) or one wire frame with its size and checksum.
struct RoutedFrame {
  int dst;
  DataChunk chunk;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

/// Routes source `src`'s chunks as `spec` describes, in the exchange's
/// deterministic order (chunk order, destinations ascending, frames of a
/// chunk in row order): hashes a shuffle's key, gathers each
/// destination's piece, cuts pieces into frames of at most `frame_cap`
/// bytes and checksums them. Each input chunk is freed once routed. Runs
/// on the source's worker; touches no link.
Status RouteSource(const verify::ExchangeSpec& spec, uint64_t frame_cap,
                   int src, std::vector<DataChunk> chunks,
                   std::vector<RoutedFrame>* out) {
  const uint32_t fanout = static_cast<uint32_t>(spec.to_nodes.size());
  std::vector<uint64_t> hashes;
  for (DataChunk& chunk : chunks) {
    if (chunk.num_rows() == 0) continue;

    // Route this chunk: per destination node, the piece it receives.
    std::vector<std::pair<int, DataChunk>> routed;
    switch (spec.kind) {
      case verify::ExchangeKind::kShuffle: {
        if (spec.key_col < 0 ||
            static_cast<size_t>(spec.key_col) >= chunk.num_columns()) {
          return Status::InvalidArgument("shuffle key column out of range");
        }
        hashes.clear();  // non-empty switches HashColumn into combine mode
        DFLOW_RETURN_NOT_OK(HashColumn(chunk.column(spec.key_col), &hashes));
        std::vector<SelectionVector> sel(fanout);
        for (size_t r = 0; r < hashes.size(); ++r) {
          sel[hashes[r] % fanout].Append(static_cast<uint32_t>(r));
        }
        for (uint32_t p = 0; p < fanout; ++p) {
          if (sel[p].empty()) continue;
          routed.emplace_back(spec.to_nodes[p],
                              sel[p].size() == chunk.num_rows()
                                  ? std::move(chunk)
                                  : chunk.Gather(sel[p]));
        }
        break;
      }
      case verify::ExchangeKind::kBroadcast: {
        for (size_t i = 0; i + 1 < spec.to_nodes.size(); ++i) {
          routed.emplace_back(spec.to_nodes[i], chunk);
        }
        routed.emplace_back(spec.to_nodes.back(), std::move(chunk));
        break;
      }
      case verify::ExchangeKind::kGather: {
        routed.emplace_back(spec.to_nodes[0], std::move(chunk));
        break;
      }
    }
    chunk = DataChunk();

    for (auto& [dst, piece] : routed) {
      if (dst == src) {
        out->push_back(RoutedFrame{dst, std::move(piece)});
        continue;
      }
      // Split the piece into wire frames of at most frame_cap bytes each.
      const uint64_t piece_bytes = piece.ByteSize();
      const size_t piece_rows = piece.num_rows();
      const size_t num_frames =
          static_cast<size_t>((piece_bytes + frame_cap - 1) / frame_cap);
      const size_t rows_per_frame = (piece_rows + num_frames - 1) / num_frames;
      for (size_t start = 0; start < piece_rows; start += rows_per_frame) {
        const size_t count = std::min(rows_per_frame, piece_rows - start);
        DataChunk frame = count == piece_rows ? std::move(piece)
                                              : piece.Slice(start, count);
        const uint64_t bytes = frame.ByteSize();
        const uint64_t checksum = ChecksumChunk(frame);
        out->push_back(RoutedFrame{dst, std::move(frame), bytes, checksum});
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<ExchangeResult> RunExchange(Cluster* cluster,
                                   const verify::ExchangeSpec& spec,
                                   sim::SimTime cancel_at_ns,
                                   NodeChunks inputs,
                                   const std::vector<sim::SimTime>& ready_ns) {
  const int n = cluster->num_nodes();
  if (static_cast<int>(inputs.size()) != n ||
      static_cast<int>(ready_ns.size()) != n) {
    return Status::InvalidArgument(
        "exchange inputs/ready must be indexed by node id over the cluster");
  }
  if (spec.to_nodes.empty()) {
    return Status::InvalidArgument("exchange " + spec.name +
                                   " has no destination nodes");
  }
  for (const std::vector<int>* nodes : {&spec.from_nodes, &spec.to_nodes}) {
    for (int node : *nodes) {
      if (node < 0 || node >= n) {
        return Status::InvalidArgument("exchange " + spec.name +
                                       " endpoint outside the cluster");
      }
    }
  }

  ExchangeResult result;
  result.received.resize(n);
  result.done_ns.assign(n, 0);
  for (int d : spec.to_nodes) result.done_ns[d] = ready_ns[d];

  const ClusterFaultConfig& fault = cluster->config().fault;
  const bool loss_armed = fault.lose_node >= 0 && fault.lose_node < n &&
                          cluster->node_alive(fault.lose_node);
  const uint64_t frame_cap =
      std::max<uint64_t>(1, cluster->config().frame_bytes);
  const ExchangeStats before = cluster->TotalExchangeStats();

  // Ends the exchange: returns every in-flight credit on the source ->
  // destination links, the only ones its frames use (delivered frames'
  // acks are all in the virtual past by construction; cancelled frames are
  // explicitly released — either way the window must come back empty), and
  // reports only this exchange's delta of the link counters.
  auto finish = [&](ExchangeOutcome outcome) {
    for (int s : spec.from_nodes) {
      for (int d : spec.to_nodes) {
        if (s != d) cluster->link(s, d).CancelWindow();
      }
    }
    const ExchangeStats after = cluster->TotalExchangeStats();
    result.stats.bytes = after.bytes - before.bytes;
    result.stats.frames = after.frames - before.frames;
    result.stats.retransmits = after.retransmits - before.retransmits;
    result.stats.frames_lost = after.frames_lost - before.frames_lost;
    result.stats.credit_stall_ns = after.credit_stall_ns - before.credit_stall_ns;
    result.outcome = outcome;
    return result;
  };

  // Routing (hash, gather, frame cuts, checksums) runs on every source's
  // own worker at once. The sends stay serial on this thread in the
  // deterministic frame layout: source nodes ascending, that source's
  // chunks in order, destinations ascending, frames of a chunk in row
  // order. The links are shared state and a frame's timing depends on the
  // frames before it, so same inputs => same schedule => byte-identical
  // counters.
  std::vector<std::vector<RoutedFrame>> routed(n);
  const auto route = [&](int src) {
    return RouteSource(spec, frame_cap, src, std::move(inputs[src]),
                       &routed[src]);
  };
  DFLOW_RETURN_NOT_OK(cluster->ForEachNode(spec.from_nodes, route));
  for (int src : spec.from_nodes) {
    for (RoutedFrame& frame : routed[src]) {
      if (frame.dst == src) {
        // Local delivery: no link, no frame, no credit — the piece is
        // already where it needs to be at the fragment's own ready time.
        result.received[src].push_back(std::move(frame.chunk));
        continue;
      }
      const sim::SimTime ready = ready_ns[src];
      if (cancel_at_ns > 0 && ready >= cancel_at_ns) {
        return finish(ExchangeOutcome::kCancelled);
      }
      const sim::InterNodeLink::FrameResult sent =
          cluster->link(src, frame.dst).Send(ready, frame.bytes,
                                             frame.checksum);
      if (loss_armed &&
          (src == fault.lose_node || frame.dst == fault.lose_node) &&
          sent.arrive >= fault.lose_node_at_ns) {
        cluster->MarkNodeLost(fault.lose_node);
        return finish(ExchangeOutcome::kNodeLost);
      }
      if (!sent.delivered) {
        return finish(ExchangeOutcome::kRetryExhausted);
      }
      result.done_ns[frame.dst] =
          std::max(result.done_ns[frame.dst], sent.arrive);
      result.received[frame.dst].push_back(std::move(frame.chunk));
    }
  }
  return finish(ExchangeOutcome::kDone);
}

}  // namespace dflow::cluster
