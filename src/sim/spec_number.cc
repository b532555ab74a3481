#include "sim/spec_number.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace centaur {

bool
parseSpecNumber(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string
formatSpecNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace centaur
