"""rsa-primer: an educational, from-scratch RSA toolkit.

Number theory primitives, deterministic key generation, block codecs for
text, the raw RSA transform, and a key-recovery attack, all at toy scale
and all reproducible from explicit seeds.  Nothing here is hardened
cryptography; the point is to make every step of the algorithm visible.
"""

# The package exports every name in the __all__ of the four library modules.
# cli stays out, so that importing the library does not load argparse.
from .cipher import *
from .codec import *
from .keys import *
from .number_theory import *

__version__ = "0.1.0"
