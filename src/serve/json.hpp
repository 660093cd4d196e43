#pragma once

/// Forwarding header: the JSON module lives in common/json.hpp as
/// bladed::Json. perfbench/serve.cpp includes this path and names
/// bladed::serve::Json, and the benchmark's sources stay unchanged so that
/// results from different commits compare; nothing else in the repo
/// includes this header.

#include "common/json.hpp"

namespace bladed::serve {
using bladed::Json;
using bladed::JsonError;
}  // namespace bladed::serve
