// Umbrella public header: the Codec interface (with plan_reconstruct), the
// string-spec registry, BatchCoder sessions and the CodecService serving
// façade. Applications normally need nothing else:
//
//   #include "api/xorec.hpp"
//   auto codec = xorec::make_codec("rs(10,4)");
//   auto plan  = codec->plan_reconstruct(available_ids, erased_ids);
//   xorec::BatchCoder batch("rs(10,4)@batch=8");
//   xorec::CodecService service;
//   auto lease = service.acquire("rs(10,4)@warmup=plans.profile");
#pragma once

#include "api/batch.hpp"      // IWYU pragma: export
#include "api/codec.hpp"      // IWYU pragma: export
#include "api/registry.hpp"   // IWYU pragma: export
#include "api/service.hpp"    // IWYU pragma: export
