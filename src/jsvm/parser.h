// Recursive-descent parser for MicroJS. Produces a Program that owns the
// source text; statements require terminating semicolons (the snapshot
// writer always emits them, and app code in this repo follows suit).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "src/jsvm/ast.h"
#include "src/jsvm/lexer.h"

namespace offload::jsvm {

/// Parse a full program, pulling tokens from the lexer one at a time. The
/// whole program is parsed before any of it runs. Throws ParseError on
/// malformed input.
ProgramPtr parse_program(std::string_view source, std::string origin = "app");

/// Parse a single function expression, e.g. "function (a) { return a; }".
/// Used by the snapshot restore path (__closure). The returned Program has
/// exactly one ExprStmt holding a FunctionExpr.
ProgramPtr parse_function_source(std::string_view source,
                                 std::string origin = "closure");

}  // namespace offload::jsvm
