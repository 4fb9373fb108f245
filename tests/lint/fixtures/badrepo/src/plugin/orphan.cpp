// Golden-bad fixture: a src/ module with no rank in the layer order, so
// its includes would escape layering-order. Never compiled.
#include "core/top.hpp"
