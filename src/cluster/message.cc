// Copyright 2026 The SemTree Authors

#include "cluster/message.h"

namespace semtree {

Reply::~Reply() { Set(nullptr); }

void Reply::Set(Payload payload) {
  if (!set_.exchange(true, std::memory_order_acq_rel)) {
    promise_.set_value(std::move(payload));
  }
}

}  // namespace semtree
