import os
import sys

from hypothesis import Phase, settings

sys.path.insert(0, os.path.dirname(__file__))

# ``mutants.py`` runs each mutant's tests under this profile: the first
# failing example kills a mutant, so none is shrunk
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate,
                                             Phase.target))
