#include "ib/qp.h"

#include <cassert>
#include <cstring>

#include "fault/injector.h"

namespace pvfsib::ib {

QueuePair::QueuePair(Hca& local, Fabric& fabric, u32 sq_depth, u32 rq_depth)
    : local_(local), fabric_(fabric), sq_depth_(sq_depth),
      rq_depth_(rq_depth) {}

void QueuePair::connect(QueuePair& a, QueuePair& b) {
  assert(a.peer_ == nullptr && b.peer_ == nullptr);
  a.peer_ = &b;
  b.peer_ = &a;
}

Status QueuePair::post_recv(u64 wr_id, u64 addr, u64 len, u32 lkey) {
  if (recv_queue_.size() >= rq_depth_) {
    return resource_exhausted("receive queue full");
  }
  if (!local_.validate(lkey, addr, len)) {
    return permission_denied("receive buffer not covered by its MR");
  }
  recv_queue_.push_back(PostedRecv{wr_id, addr, len, lkey});
  return Status::ok();
}

QueuePair::SendResult QueuePair::post_send(u64 wr_id,
                                           std::span<const Sge> sges,
                                           TimePoint ready) {
  SendResult out;
  if (peer_ == nullptr) {
    out.status = failed_precondition("queue pair not connected");
    return out;
  }
  if (sends_inflight_ >= sq_depth_) {
    out.status = resource_exhausted("send queue full (completions unreaped)");
    return out;
  }
  out.status = local_.validate_sges(sges);
  if (!out.status.is_ok()) return out;

  u64 total = 0;
  for (const Sge& s : sges) total += s.length;
  if (fabric_.injector().rnr()) {
    // Forced receiver-not-ready: the peer's receive stays posted (the
    // NAK fired before any buffer was consumed) and the sender retries.
    out.status = resource_exhausted("receiver not ready (injected RNR)");
    return out;
  }
  if (peer_->recv_queue_.empty()) {
    // Receiver not ready. RC hardware would retry then error the QP; the
    // model surfaces it immediately.
    out.status = resource_exhausted("peer has no posted receive (RNR)");
    return out;
  }
  const PostedRecv recv = peer_->recv_queue_.front();
  if (total > recv.len) {
    out.status = invalid_argument("message exceeds posted receive buffer");
    return out;
  }
  peer_->recv_queue_.pop_front();
  ++sends_inflight_;

  // Move the payload into the receive buffer, gather order.
  u64 pos = recv.addr;
  for (const Sge& s : sges) {
    std::memcpy(peer_->local_.address_space().data(pos),
                local_.address_space().data(s.addr), s.length);
    pos += s.length;
  }

  // Channel-semantics timing: the same wire the control path uses.
  const NetParams& np = fabric_.params();
  const Duration wire = transfer_time(total, np.send_bw);
  const TimePoint start = max(local_.nic().earliest_start(ready),
                              peer_->local_.nic().earliest_start(ready));
  local_.nic().acquire(start, wire);
  peer_->local_.nic().acquire(start, wire);
  out.bytes = total;
  out.complete = start + wire + np.send_latency;
  out.status = Status::ok();
  local_.cq().push(Completion{wr_id, Completion::Op::kSend, total,
                              Status::ok(), out.complete});
  peer_->local_.cq().push(Completion{recv.wr_id, Completion::Op::kRecv, total,
                                     Status::ok(), out.complete});
  return out;
}

TransferResult QueuePair::rdma_write(std::span<const Sge> sges, u64 raddr,
                                     u32 rkey, TimePoint ready) {
  if (peer_ == nullptr) {
    TransferResult out;
    out.status = failed_precondition("queue pair not connected");
    return out;
  }
  return fabric_.rdma_write_gather(local_, sges, peer_->local_, raddr, rkey,
                                   ready);
}

TransferResult QueuePair::rdma_read(std::span<const Sge> sges, u64 raddr,
                                    u32 rkey, TimePoint ready) {
  if (peer_ == nullptr) {
    TransferResult out;
    out.status = failed_precondition("queue pair not connected");
    return out;
  }
  return fabric_.rdma_read_scatter(local_, sges, peer_->local_, raddr, rkey,
                                   ready);
}

void QueuePair::reap(u32 n) {
  sends_inflight_ = n >= sends_inflight_ ? 0 : sends_inflight_ - n;
}

}  // namespace pvfsib::ib
