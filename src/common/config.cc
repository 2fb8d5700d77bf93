#include "common/config.hh"

namespace c3d
{

const char *
designName(Design d)
{
    switch (d) {
      case Design::Baseline:
        return "baseline";
      case Design::Snoopy:
        return "snoopy";
      case Design::FullDir:
        return "full-dir";
      case Design::C3D:
        return "c3d";
      case Design::C3DFullDir:
        return "c3d-full-dir";
    }
    return "?";
}

const char *
mappingPolicyName(MappingPolicy p)
{
    switch (p) {
      case MappingPolicy::Interleave:
        return "INT";
      case MappingPolicy::FirstTouch1:
        return "FT1";
      case MappingPolicy::FirstTouch2:
        return "FT2";
    }
    return "?";
}

} // namespace c3d
