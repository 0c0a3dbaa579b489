#include "sse/emm_codec.h"

namespace rsse::sse {

SearchScratch& ThreadSearchScratch() {
  // thread_local is the synchronization: each search thread owns its own
  // buffers, and SearchChain never re-enters itself on one thread.
  thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace rsse::sse
