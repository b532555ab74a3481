/**
 * @file
 * Numbers inside the spec grammars (workload, cache, cluster, ctrl).
 *
 * Every grammar parses its numeric tokens with parseSpecNumber and
 * prints them back with formatSpecNumber, so a token means the same
 * thing in every grammar and a canonical spec name re-parses.
 */

#ifndef CENTAUR_SIM_SPEC_NUMBER_HH
#define CENTAUR_SIM_SPEC_NUMBER_HH

#include <string>

namespace centaur {

/**
 * Parse a finite double spanning the whole of @p text into @p out.
 * Fails on an empty token, trailing characters, and on nan or
 * infinity (including overflowing literals such as 1e999), which no
 * spec number can mean.
 */
bool parseSpecNumber(const std::string &text, double *out);

/** The %g form spec names print numbers in. */
std::string formatSpecNumber(double v);

} // namespace centaur

#endif // CENTAUR_SIM_SPEC_NUMBER_HH
