#include "src/sim/event_loop.h"

#include <utility>

namespace fragvisor {

uint32_t EventLoop::AllocSlot() {
  if (free_head_ != kNpos) {
    const uint32_t s = free_head_;
    free_head_ = slots_[s].next_free;
    slots_[s].next_free = kNpos;
    return s;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::FreeSlot(uint32_t s) {
  Slot& sl = slots_[s];
  sl.cb = nullptr;
  sl.relay = 0;
  sl.heap_pos = kNpos;
  ++sl.gen;  // invalidates every outstanding EventId for this slot
  sl.next_free = free_head_;
  free_head_ = s;
}

void EventLoop::SiftUp(size_t pos) {
  const uint32_t s = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) >> 2;
    if (!Earlier(s, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = s;
  slots_[s].heap_pos = static_cast<uint32_t>(pos);
}

void EventLoop::SiftDown(size_t pos) {
  const uint32_t s = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = pos * 4 + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], s)) {
      break;
    }
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = s;
  slots_[s].heap_pos = static_cast<uint32_t>(pos);
}

void EventLoop::HeapPush(uint32_t s) {
  heap_.push_back(s);
  SiftUp(heap_.size() - 1);
}

void EventLoop::HeapRemoveAt(size_t pos) {
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    slots_[last].heap_pos = static_cast<uint32_t>(pos);
    SiftUp(pos);
    SiftDown(slots_[last].heap_pos);
  }
}

EventId EventLoop::ScheduleAt(TimeNs when, Callback&& cb) {
  FV_CHECK_GE(when, now_);
  FV_CHECK(cb != nullptr);
  const uint32_t s = AllocSlot();
  Slot& sl = slots_[s];
  sl.time = when;
  sl.seq = next_seq_++;
  sl.cb = std::move(cb);
  HeapPush(s);
  return MakeId(s, sl.gen);
}

EventId EventLoop::ScheduleRelay(TimeNs when, TimeNs relay_delay, Callback&& cb) {
  FV_CHECK_GE(relay_delay, 0);
  const EventId id = ScheduleAt(when, std::move(cb));
  slots_[static_cast<uint32_t>((id & 0xffffffffu) - 1)].relay = relay_delay;
  return id;
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t raw = static_cast<uint32_t>(id & 0xffffffffu);
  if (raw == 0 || raw > slots_.size()) {
    return false;
  }
  const uint32_t s = raw - 1;
  Slot& sl = slots_[s];
  if (sl.gen != static_cast<uint32_t>(id >> 32) || sl.heap_pos == kNpos) {
    return false;  // already fired, already cancelled, or a stale handle
  }
  HeapRemoveAt(sl.heap_pos);
  FreeSlot(s);
  return true;
}

bool EventLoop::DispatchOne() {
  if (heap_.empty()) {
    return false;
  }
  const uint32_t s = heap_[0];
  Slot& sl = slots_[s];
  FV_CHECK_GE(sl.time, now_);
  now_ = sl.time;
  if (sl.relay > 0) {
    // Phase one of a relay (message delivery): re-arm for the handler phase
    // with a fresh sequence number, exactly as if the handler had been
    // scheduled from inside a delivery callback.
    sl.time += sl.relay;
    sl.relay = 0;
    sl.seq = next_seq_++;
    SiftDown(0);
    return true;
  }
  Callback cb = std::move(sl.cb);
  HeapRemoveAt(0);
  FreeSlot(s);
  cb();  // may schedule or cancel freely; the slot is already released
  return true;
}

size_t EventLoop::Run() {
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_ && DispatchOne()) {
    ++dispatched;
  }
  return dispatched;
}

size_t EventLoop::RunWhile(const std::function<bool()>& keep_going, TimeNs deadline) {
  FV_CHECK(keep_going != nullptr);
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_ && keep_going()) {
    if (heap_.empty() || slots_[heap_[0]].time > deadline) {
      break;
    }
    if (DispatchOne()) {
      ++dispatched;
    }
  }
  return dispatched;
}

size_t EventLoop::RunBelow(TimeNs horizon) {
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_) {
    if (heap_.empty() || slots_[heap_[0]].time >= horizon) {
      break;
    }
    if (DispatchOne()) {
      ++dispatched;
    }
  }
  return dispatched;
}

size_t EventLoop::RunUntil(TimeNs deadline) {
  FV_CHECK_GE(deadline, now_);
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_) {
    if (heap_.empty() || slots_[heap_[0]].time > deadline) {
      break;
    }
    if (DispatchOne()) {
      ++dispatched;
    }
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return dispatched;
}

}  // namespace fragvisor
